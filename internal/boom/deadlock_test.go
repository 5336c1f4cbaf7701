package boom

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRunDeadlockTypedError: a stuck pipeline must surface from Run as a
// *DeadlockError matching the ErrDeadlock sentinel — returned, never
// panicked — carrying the pipeline state at detection time.
func TestRunDeadlockTypedError(t *testing.T) {
	c := mustNew(t, MediumBOOM())
	// Plant a uop that can never issue: its pend bit sits on no producer's
	// wake list, so nothing ever clears it, the ROB head never commits, and
	// the progress watchdog must fire.
	*c.slot(1) = uop{state: stWaiting, pend: 1}
	c.mid, c.tail = 2, 2
	c.intQ = append(c.intQ, c.ref(1))

	n, err := c.Run(func(*sim.Retired) bool { return false }, 1)
	if err == nil {
		t.Fatal("stuck pipeline must return an error")
	}
	if n != 0 {
		t.Errorf("retired %d instructions from a stuck pipeline", n)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("error %v does not match the ErrDeadlock sentinel", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *DeadlockError", err)
	}
	if de.ROB != 1 || de.IntQ != 1 {
		t.Errorf("state snapshot rob=%d intQ=%d, want 1/1", de.ROB, de.IntQ)
	}
	// The whole wait is one quiet stretch: a skip that overshoots the
	// watchdog horizon would shift the reported cycle.
	if de.Cycle != 100_001 {
		t.Errorf("detected at cycle %d, want 100001 (the per-cycle watchdog's report)", de.Cycle)
	}
	for _, want := range []string{"deadlock", "rob 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestNewInvalidConfigError: New must reject a broken configuration with
// an error naming it — not panic, not build a core that misbehaves later.
func TestNewInvalidConfigError(t *testing.T) {
	cfg := MediumBOOM()
	cfg.RobEntries = 0
	c, err := New(cfg)
	if err == nil {
		t.Fatal("New must reject RobEntries=0")
	}
	if c != nil {
		t.Error("New must not return a core alongside an error")
	}
	if !strings.Contains(err.Error(), cfg.Name) {
		t.Errorf("error %q does not name the config", err)
	}
}
