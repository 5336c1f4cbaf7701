package boom

// Differential oracles for the tick kernel's two fast paths: quiet-cycle
// skipping is compared with a core that steps every cycle
// (CheckInvariants(true) never skips), and Core.Reset with a core fresh
// from New. "Identical" is the canonical EncodeStats bytes plus the clock.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func statsBytes(t *testing.T, c *Core) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeStats(&buf, c.Stats()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSkipMatchesStepping replays tr on cfg twice — stepping every cycle
// with the invariants asserted, then with skipping — and requires the same
// bytes and the same final cycle. It returns the skipping core.
func assertSkipMatchesStepping(t *testing.T, what string, cfg Config, tr []sim.Retired) *Core {
	t.Helper()
	ref, fast := mustNew(t, cfg), mustNew(t, cfg)
	ref.CheckInvariants(true)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		mustRun(t, ref, (&replaySource{tr: tr}).next, math.MaxUint64)
	}()
	mustRun(t, fast, (&replaySource{tr: tr}).next, math.MaxUint64)
	if ref.retired == 0 {
		t.Fatalf("%s retired nothing", what)
	}
	if ref.skipped != 0 {
		t.Fatalf("%s: the checked reference skipped %d cycles", what, ref.skipped)
	}
	if ref.cycle != fast.cycle || ref.retired != fast.retired {
		t.Fatalf("%s: stepping ended at cycle %d (%d retired), skipping at %d (%d)",
			what, ref.cycle, ref.retired, fast.cycle, fast.retired)
	}
	if !bytes.Equal(statsBytes(t, ref), statsBytes(t, fast)) {
		t.Fatalf("%s: stats differ between stepping and skipping\nstep: %+v\nskip: %+v", what, ref.Stats(), fast.Stats())
	}
	return fast
}

// TestQuietSkipMatchesStepping: every workload on every design point, and
// the random-program generator, must hold the structural invariants on
// every cycle and measure byte-identically whether quiet cycles are stepped
// or skipped. -short keeps the workload on each side of the mechanism:
// tarfind (mostly quiet) and sha (hardly ever).
func TestQuietSkipMatchesStepping(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"tarfind", "sha"}
	}
	for _, name := range names {
		tr := workloadTrace(t, name)
		for _, cfg := range Configs() {
			c := assertSkipMatchesStepping(t, name+" on "+cfg.Name, cfg, tr)
			share := float64(c.skipped) / float64(c.cycle)
			t.Logf("%-12s %-10s %8d cycles, %4.1f%% skipped", name, cfg.Name, c.cycle, 100*share)
			if name == "tarfind" && share < 0.5 {
				t.Errorf("tarfind on %s skipped %.1f%% of its cycles: the fast path is not engaging", cfg.Name, 100*share)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		tr := recordTrace(t, newCPUFor(t, mustProgram(t, genProgram(rng, 2+rng.Intn(5)))))
		for _, cfg := range Configs() {
			assertSkipMatchesStepping(t, "random program on "+cfg.Name, cfg, tr)
		}
	}
}

// TestInjectorHitsSameCycleWhenSkipping: the boom.tick chaos site is
// checked every 8192 cycles; a skip must stop on those cycles, so a rule
// that fires on the Nth check ends Run at the same cycle, with the same
// instructions retired, as on a core that steps.
func TestInjectorHitsSameCycleWhenSkipping(t *testing.T) {
	tr := workloadTrace(t, "tarfind")
	run := func(step bool) *Core {
		inj, err := faultinject.Parse("1:boom.tick/tarfind=error#3")
		if err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, LargeBOOM())
		c.CheckInvariants(step)
		c.SetFaultInjector(inj, "tarfind", "LargeBOOM")
		_, err = c.Run((&replaySource{tr: tr}).next, math.MaxUint64)
		var f *faultinject.Fault
		if !errors.As(err, &f) {
			t.Fatalf("Run returned %v, want the injected fault", err)
		}
		return c
	}
	ref, fast := run(true), run(false)
	if ref.cycle != 3*(injCheckMask+1) {
		t.Errorf("stepping core hit the injector at cycle %d, want %d", ref.cycle, 3*(injCheckMask+1))
	}
	if fast.skipped == 0 {
		t.Error("the skipping core never skipped: the case proves nothing")
	}
	if ref.cycle != fast.cycle || ref.retired != fast.retired {
		t.Errorf("injector hit at cycle %d (%d retired) stepping, %d (%d) skipping",
			ref.cycle, ref.retired, fast.cycle, fast.retired)
	}
	if !bytes.Equal(statsBytes(t, ref), statsBytes(t, fast)) {
		t.Error("stats at the injected fault differ between stepping and skipping")
	}
}

// measurePoint mirrors Runner.measure on one simulation point: warm up,
// reset the counters, measure, and return the stats bytes, a pipeline
// trace of the measured interval's first µops (which prints seq numbers
// and absolute cycles) and the final clock.
func measurePoint(t *testing.T, c *Core, tr []sim.Retired) (stats, pipe []byte, cycle uint64) {
	t.Helper()
	const warm, interval = 20_000, 60_000
	src := &replaySource{tr: tr}
	mustRun(t, c, src.next, warm)
	c.ResetStats()
	var trace bytes.Buffer
	c.SetPipeTrace(&trace, 64)
	mustRun(t, c, src.next, interval)
	c.SetPipeTrace(nil, 0)
	return statsBytes(t, c), trace.Bytes(), c.cycle
}

// TestResetMatchesNew: a core that already ran — another workload to the
// end, the same workload's earlier instructions (what a point worker's
// core has seen: the same PCs, lines and branches) stopped with the
// pipeline full, or into a deadlock — and was then Reset must measure a
// point exactly as a core fresh from New does.
func TestResetMatchesNew(t *testing.T) {
	other := workloadTrace(t, "patricia")
	head := workloadTrace(t, "qsort")
	point := head[len(head)/3:] // restored mid-workload
	dirty := []struct {
		what string
		run  func(t *testing.T, c *Core)
	}{
		{"another workload's full run", func(t *testing.T, c *Core) {
			mustRun(t, c, (&replaySource{tr: other}).next, math.MaxUint64)
		}},
		{"the workload's own head, stopped mid-flight", func(t *testing.T, c *Core) {
			mustRun(t, c, (&replaySource{tr: head}).next, uint64(len(head)/3))
			if c.mid == c.head || c.tail == c.mid {
				t.Fatal("the pipeline drained; the case needs it full")
			}
		}},
		{"a deadlock", func(t *testing.T, c *Core) {
			mustRun(t, c, (&replaySource{tr: other}).next, 10_000)
			stuck := c.at(c.intQ[0]) // a third-source bit no producer will ever clear
			if stuck.srcMap[2] != renameNone {
				t.Fatal("the planted pend bit needs an unused source slot")
			}
			stuck.pend |= 1 << 2
			if _, err := c.Run((&replaySource{tr: other[10_000:]}).next, 1<<40); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("planted deadlock returned %v", err)
			}
		}},
	}
	for _, cfg := range Configs() {
		wantStats, wantPipe, wantCycle := measurePoint(t, mustNew(t, cfg), point)
		for i, d := range dirty {
			c := mustNew(t, cfg)
			d.run(t, c)
			c.Reset()
			// One case steps with the invariants asserted: what Reset
			// leaves behind must also be structurally a new core.
			c.CheckInvariants(i == 1)
			gotStats, gotPipe, gotCycle := measurePoint(t, c, point)
			if gotCycle != wantCycle {
				t.Errorf("%s after %s: Reset core ended at cycle %d, new core at %d", cfg.Name, d.what, gotCycle, wantCycle)
			}
			if !bytes.Equal(gotStats, wantStats) {
				t.Errorf("%s after %s: Reset core's stats differ from a new core's", cfg.Name, d.what)
			}
			if !bytes.Equal(gotPipe, wantPipe) {
				t.Errorf("%s after %s: pipeline traces differ\nreset:\n%s\nnew:\n%s", cfg.Name, d.what, gotPipe, wantPipe)
			}
		}
	}
}
