package backoff

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func fastPolicy() Policy {
	return Policy{Attempts: 4, Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: -1}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	wantErr := errors.New("still down")
	err := Retry(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want the full 4 attempts", calls)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	inner := errors.New("400 bad request")
	err := Retry(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return Permanent(fmt.Errorf("rpc: %w", inner))
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (permanent errors must not retry)", calls)
	}
	// The marker is unwrapped: callers see their own error chain.
	if IsPermanent(err) {
		t.Error("returned error still carries the Permanent marker")
	}
	if !errors.Is(err, inner) {
		t.Errorf("err = %v, want chain containing %v", err, inner)
	}
}

func TestRetryParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, fastPolicy(), func(context.Context) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cancel must stop the loop)", calls)
	}
}

func TestRetryAttemptDeadline(t *testing.T) {
	p := fastPolicy()
	p.Attempts = 2
	p.AttemptTimeout = 5 * time.Millisecond
	var sawDeadline bool
	err := Retry(context.Background(), p, func(ctx context.Context) error {
		d, ok := ctx.Deadline()
		if !ok {
			t.Fatal("attempt context has no deadline")
		}
		if time.Until(d) > p.AttemptTimeout {
			t.Errorf("deadline %v further out than AttemptTimeout", time.Until(d))
		}
		<-ctx.Done() // a stalled RPC: blocks until the per-attempt deadline
		sawDeadline = true
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if !sawDeadline {
		t.Error("attempt never observed its deadline")
	}
}

func TestWaitGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: -1}
	waits := []time.Duration{p.Wait(0), p.Wait(1), p.Wait(2), p.Wait(5)}
	want := []time.Duration{10, 20, 40, 40}
	for i, w := range waits {
		if w != want[i]*time.Millisecond {
			t.Errorf("Wait(%d) = %v, want %v", i, w, want[i]*time.Millisecond)
		}
	}
}

// TestWaitSaturatesAtMax: a Max near the largest Duration is reached, not
// overflowed: the doubling stops at Max instead of wrapping negative.
func TestWaitSaturatesAtMax(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: math.MaxInt64, Jitter: -1}
	var prev time.Duration
	for i := 0; i < 70; i++ {
		w := p.Wait(i)
		if w < prev || w > p.Max {
			t.Fatalf("Wait(%d) = %v after %v", i, w, prev)
		}
		prev = w
	}
	if prev != p.Max {
		t.Errorf("Wait(69) = %v, want Max %v", prev, p.Max)
	}
}

func TestWaitJitterStaysInBand(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		w := p.Wait(0)
		if w < 50*time.Millisecond || w > 100*time.Millisecond {
			t.Fatalf("jittered wait %v outside [50ms, 100ms]", w)
		}
	}
}

// TestAfterIsACappedWaitInstruction: an After error is retried like any
// other, its wait replaces the exponential step but never exceeds Max, and
// the caller gets its own error back without the marker.
func TestAfterIsACappedWaitInstruction(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: -1}
	busy := errors.New("busy")
	for _, c := range []struct{ d, want time.Duration }{
		{0, 0},
		{25 * time.Millisecond, 25 * time.Millisecond},
		{24 * time.Hour, 40 * time.Millisecond},
		{-time.Second, 0},
	} {
		if got := p.WaitAfter(3, After(busy, c.d)); got != c.want {
			t.Errorf("WaitAfter(After(%v)) = %v, want %v", c.d, got, c.want)
		}
	}
	if got := p.WaitAfter(1, busy); got != 20*time.Millisecond {
		t.Errorf("WaitAfter without an instruction = %v, want Wait(1) = 20ms", got)
	}
	calls := 0
	err := Retry(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return After(busy, 0)
	})
	if err != busy || calls != 4 {
		t.Errorf("Retry = %v after %d calls, want the bare error after all 4 attempts", err, calls)
	}
}
