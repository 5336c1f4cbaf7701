package artifact

import (
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen reports a remote-store operation short-circuited because
// the circuit breaker is open: the store has failed enough consecutive
// times that hammering it further only adds latency. Callers treat it as
// a cache miss (recompute locally) or a skipped push, never as a sweep
// failure.
var ErrBreakerOpen = fmt.Errorf("artifact: remote store circuit breaker open")

const (
	brClosed   = iota // normal operation
	brOpen            // short-circuiting everything until the cooldown lapses
	brHalfOpen        // cooldown lapsed; one probe in flight decides
)

// breaker is a consecutive-failure circuit breaker guarding the remote
// artifact store. Closed passes everything through; threshold consecutive
// failures trip it open; while open every call short-circuits with
// ErrBreakerOpen (the sweep degrades to local recompute instead of
// stalling on a dead store); after cooldown exactly one probe is allowed
// through — success closes the breaker, failure re-opens it for another
// cooldown. Probe dedupe matters under concurrency: N goroutines arriving
// at the half-open instant must not all dogpile the recovering store.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
	count     func(string)     // metrics hook (never nil)

	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, count func(string)) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if count == nil {
		count = func(string) {}
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, count: count}
}

// allow reports whether an operation may proceed. A false return is a
// short circuit: the caller must fail fast with ErrBreakerOpen and must
// not report success/failure back.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return true
	case brOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.count("artifact.breaker_short_circuit")
			return false
		}
		b.state = brHalfOpen
		b.probing = true
		b.count("artifact.breaker_probe")
		return true
	default: // brHalfOpen
		if b.probing {
			b.count("artifact.breaker_short_circuit")
			return false
		}
		b.probing = true
		b.count("artifact.breaker_probe")
		return true
	}
}

// success records a completed operation (including "the server answered
// with a refusal" — reachability is what the breaker measures).
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == brHalfOpen {
		b.count("artifact.breaker_close")
	}
	b.state = brClosed
	b.failures = 0
	b.probing = false
}

// failure records a transport-level or server-side (5xx) failure.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.tripLocked()
		}
	case brHalfOpen:
		b.probing = false
		b.tripLocked()
	case brOpen:
		// An operation that started before the trip finished late; the
		// breaker is already open and the cooldown already running.
	}
}

func (b *breaker) tripLocked() {
	b.state = brOpen
	b.openedAt = b.now()
	b.failures = 0
	b.count("artifact.breaker_open")
}
