package boom

// Differential oracles for the tick kernel's two fast paths: quiet-cycle
// skipping is compared with a core that steps every cycle
// (CheckInvariants(true) never skips), and Core.Reset with a core fresh
// from New. "Identical" is the canonical EncodeStats bytes plus the clock.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// resetDiff names the first part of c, Reset to cfg, that differs from a
// core fresh from New(cfg), or is "" when none does. What Reset keeps — the
// decode cache and what the caller attached — is left out, but an attached
// pipe trace's stamps must be zero and as long as the window; everything
// else must be New's, table lengths and contents alike, so a field added
// to Core is held too.
func resetDiff(t *testing.T, c *Core, cfg Config) string {
	t.Helper()
	got, want := *c, *mustNew(t, cfg)
	for _, k := range []*Core{&got, &want} {
		k.dec, k.metrics, k.inj, k.injSite, k.checkInv = nil, nil, nil, nil, false
		k.traceW, k.traceLeft, k.stamps = nil, 0, nil
	}
	if c.traceW != nil && (len(c.stamps) != len(c.win) ||
		slices.ContainsFunc(c.stamps, func(s pipeStamp) bool { return s != pipeStamp{} })) {
		return "pipe-trace stamps"
	}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	for _, p := range []struct {
		name string
		a, b any
	}{
		{"config", got.cfg, want.cfg}, {"stats", got.stats, want.stats},
		{"predictor", got.bp, want.bp},
		{"L1I", got.icache, want.icache}, {"L1D", got.dcache, want.dcache}, {"L2", got.l2, want.l2},
		{"window", got.win, want.win}, {"window mask", got.mask, want.mask},
		{"int IQ", got.intQ, want.intQ}, {"mem IQ", got.memQ, want.memQ}, {"fp IQ", got.fpQ, want.fpQ},
		{"STQ", got.stq, want.stq}, {"STD wait", got.stdWait, want.stdWait},
		{"accHist", got.accHist, want.accHist}, {"pipeline state", got.pipeState, want.pipeState},
	} {
		if !reflect.DeepEqual(p.a, p.b) {
			return p.name
		}
	}
	return "a field resetDiff does not name"
}

// TestResetMatchesNew: a core that already ran — on its own or another
// configuration: another workload to the end, the same workload's earlier
// instructions (what a point worker's core has seen: the same PCs, lines
// and branches) stopped with the pipeline full, or into a deadlock — and
// was then Reset to cfg must be a new core for cfg: every table and
// counter New's, and a point measured exactly as a core fresh from New
// measures it. Every preset is Reset into every preset, and each
// table-sizing axis of a design-space sweep from a small value to a large
// one and back, so a table both regrown and reused in place is held.
func TestResetMatchesNew(t *testing.T) {
	other := workloadTrace(t, "patricia")
	head := workloadTrace(t, "qsort")
	point := head[len(head)/3:] // restored mid-workload
	// The mid-flight case runs with a pipe trace attached, which Reset
	// keeps: its stamps must follow the window.
	midFlight := func(t *testing.T, c *Core) {
		c.SetPipeTrace(io.Discard, 1)
		mustRun(t, c, (&replaySource{tr: head}).next, uint64(len(head)/3))
		if c.mid == c.head || c.tail == c.mid {
			t.Fatal("the pipeline drained; the case needs it full")
		}
	}
	dirty := []struct {
		what string
		run  func(t *testing.T, c *Core)
	}{
		{"another workload's full run", func(t *testing.T, c *Core) {
			mustRun(t, c, (&replaySource{tr: other}).next, math.MaxUint64)
		}},
		{"the workload's own head, stopped mid-flight", midFlight},
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
	// check Resets a core that ran on from into to and holds it to New(to).
	// One case steps with the invariants asserted: what Reset leaves behind
	// must also be structurally a new core.
	check := func(what string, from, to Config, run func(t *testing.T, c *Core), checked bool) {
		t.Helper()
		wantStats, wantPipe, wantCycle := measurePoint(t, mustNew(t, to), point)
		c := mustNew(t, from)
		run(t, c)
		if err := c.Reset(to); err != nil {
			t.Fatal(err)
		}
		if d := resetDiff(t, c, to); d != "" {
			t.Errorf("%s: the Reset core's %s differs from a new core's", what, d)
		}
		c.CheckInvariants(checked)
		gotStats, gotPipe, gotCycle := measurePoint(t, c, point)
		if gotCycle != wantCycle {
			t.Errorf("%s: Reset core ended at cycle %d, new core at %d", what, gotCycle, wantCycle)
		}
		if !bytes.Equal(gotStats, wantStats) {
			t.Errorf("%s: Reset core's stats differ from a new core's", what)
		}
		if !bytes.Equal(gotPipe, wantPipe) {
			t.Errorf("%s: pipeline traces differ\nreset:\n%s\nnew:\n%s", what, gotPipe, wantPipe)
		}
	}
	for _, from := range Configs() {
		for _, to := range Configs() {
			for i, d := range dirty {
				check(fmt.Sprintf("%s to %s after %s", from.Name, to.Name, d.what), from, to, d.run, i == 1)
			}
		}
	}

	axes := []struct {
		name     string
		set      func(c *Config, n int)
		min, max int
	}{
		{"rob", func(c *Config, n int) { c.RobEntries = n }, 32, 256},
		{"int-iq", func(c *Config, n int) { c.IntIssueSlots = n }, 4, 64},
		{"stq", func(c *Config, n int) { c.StqEntries = n }, 4, 64},
		{"tage", func(c *Config, n int) { c.TageEntries = n }, 64, 4096},
		{"tage-tables", func(c *Config, n int) { c.TageTables = n }, 2, 8},
		{"btb", func(c *Config, n int) { c.BTBEntries = n }, 32, 4096},
		{"ras", func(c *Config, n int) { c.RASEntries = n }, 2, 64},
		{"gshare", func(c *Config, n int) { c.Predictor, c.GShareEntries = PredictorGShare, n }, 256, 1 << 16},
		{"dcache-kib", func(c *Config, n int) { c.DCacheKiB = n }, 4, 128},
		{"l2-kib", func(c *Config, n int) { c.L2KiB = n }, 128, 4096},
		{"dcache-mshrs", func(c *Config, n int) { c.DCacheMSHRs = n }, 1, 16},
	}
	for _, ax := range axes {
		lo, hi := LargeBOOM(), LargeBOOM()
		ax.set(&lo, ax.min)
		ax.set(&hi, ax.max)
		lo.Name, hi.Name = fmt.Sprintf("%s=%d", ax.name, ax.min), fmt.Sprintf("%s=%d", ax.name, ax.max)
		check(lo.Name+" to "+hi.Name, lo, hi, midFlight, false)
		check(hi.Name+" to "+lo.Name, hi, lo, midFlight, false)
	}
}

// TestResetRefusesAnInvalidConfig: Reset validates as New does, and a
// refused config leaves the core as it was.
func TestResetRefusesAnInvalidConfig(t *testing.T) {
	c := mustNew(t, MediumBOOM())
	bad := LargeBOOM()
	bad.RobEntries = 0
	if err := c.Reset(bad); err == nil {
		t.Fatal("Reset accepted a zero-entry ROB")
	}
	if d := resetDiff(t, c, MediumBOOM()); d != "" {
		t.Errorf("a refused Reset moved the core's %s", d)
	}
}
