// Package backoff is the fabric's shared retry discipline: jittered
// exponential backoff with a per-attempt deadline. Every worker →
// coordinator RPC and every remote-store operation runs under a Policy,
// so one stalled or flapping network hop degrades to a bounded amount of
// extra latency instead of a failed cell.
//
// Jitter exists to de-synchronize a fleet: when a coordinator restarts,
// N workers all fail their poll in the same instant, and without jitter
// they all retry in the same instant too. Jitter is intentionally the
// only nondeterminism in the retry layer — it shifts *when* an attempt
// runs, never *what* it computes, so result bytes stay reproducible.
package backoff

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Policy describes one retry discipline. The zero value is usable and
// means "four attempts, 100ms base doubling to a 2s cap, half-width
// jitter, no per-attempt deadline".
type Policy struct {
	// Attempts is the total number of tries, including the first
	// (default 4; values below 1 mean 1 — no retries).
	Attempts int
	// Base is the wait before the second attempt; waits double from
	// there (default 100ms).
	Base time.Duration
	// Max caps the exponential growth (default 2s).
	Max time.Duration
	// Jitter is the fraction of each wait that is randomized: the actual
	// sleep is uniform in [wait·(1−Jitter), wait] (default 0.5; 0 keeps
	// the default — pass a negative value for strictly no jitter).
	Jitter float64
	// AttemptTimeout bounds each individual attempt with its own
	// context deadline (0 = none). This is what turns a stalled RPC —
	// a connection that accepts but never answers — into a retryable
	// error instead of a hung worker.
	AttemptTimeout time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Attempts < 1 {
		if p.Attempts == 0 {
			p.Attempts = 4
		} else {
			p.Attempts = 1
		}
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// permanentError marks an error the retry loop must not absorb.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Retry returns it immediately instead of
// retrying: the server answered, it just said no (4xx, validation,
// unknown campaign). Retrying a refusal only hides it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// afterError marks a retryable error that says how long to wait.
type afterError struct {
	err error
	d   time.Duration
}

func (a *afterError) Error() string { return a.err.Error() }
func (a *afterError) Unwrap() error { return a.err }

// After wraps err with a wait instruction: Retry still retries it, but
// sleeps d — capped at the policy's Max, so no peer can park its caller —
// instead of the exponential step (an HTTP Retry-After; see internal/wire).
func After(err error, d time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, d: d}
}

// jitterRand is the package's own seeded source so Retry never contends
// on (or reseeds) the global one.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRand.Float64()
}

// Wait returns the sleep before attempt n (0-based: Wait(0) precedes the
// first retry), jittered per the policy.
func (p Policy) Wait(n int) time.Duration {
	p = p.withDefaults()
	w := p.Base
	for i := 0; i < n && w < p.Max; i++ {
		w *= 2
	}
	if w > p.Max {
		w = p.Max
	}
	if p.Jitter > 0 {
		w = time.Duration(float64(w) * (1 - p.Jitter*jitterFloat()))
	}
	return w
}

// WaitAfter returns the sleep between attempt n failing with err and the
// next one: err's After instruction capped at Max, otherwise Wait(n).
func (p Policy) WaitAfter(n int, err error) time.Duration {
	var a *afterError
	if errors.As(err, &a) {
		return max(0, min(a.d, p.withDefaults().Max))
	}
	return p.Wait(n)
}

// Retry runs op until it succeeds, returns a Permanent error, exhausts
// the attempt budget, or ctx is canceled. Each attempt gets its own
// child context carrying AttemptTimeout. The returned error is the last
// attempt's (unwrapped from the Permanent or After marker), or ctx.Err()
// when the parent context ended first.
func Retry(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		actx := ctx
		var cancel context.CancelFunc
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := op(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		lastErr = err
		var after *afterError
		if errors.As(err, &after) {
			lastErr = after.err
		}
		if attempt == p.Attempts-1 {
			break
		}
		t := time.NewTimer(p.WaitAfter(attempt, err))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return lastErr
}
