package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/workloads"
)

func profileOf(t *testing.T, name string) *Profile {
	t.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultFlowConfig()).Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileStage(t *testing.T) {
	p := profileOf(t, "bitcount")
	if p.TotalInsts == 0 {
		t.Fatal("no instructions profiled")
	}
	wantIntervals := int(p.TotalInsts/uint64(p.Workload.IntervalSize)) + 1
	if len(p.Vectors) < wantIntervals-1 || len(p.Vectors) > wantIntervals {
		t.Errorf("got %d intervals for %d insts (interval %d)",
			len(p.Vectors), p.TotalInsts, p.Workload.IntervalSize)
	}
	if p.Selection.Coverage < 0.9 {
		t.Errorf("coverage %.2f below the paper's 90%% floor", p.Selection.Coverage)
	}
	if len(p.Checkpoints) != p.NumSimPoints() {
		t.Errorf("%d checkpoints for %d simpoints", len(p.Checkpoints), p.NumSimPoints())
	}
	// bitcount has five phases: the clustering must find several.
	if p.Selection.K < 3 {
		t.Errorf("bitcount k=%d; expected ≥3 for 5 method phases", p.Selection.K)
	}
	for i, k := range p.Checkpoints {
		if k == nil {
			t.Fatalf("checkpoint %d missing", i)
		}
		start := p.Selection.Selected[i].Interval
		wantInst := int64(start)*p.Workload.IntervalSize - p.WarmupInsts[i]
		if int64(k.InstRet) != wantInst {
			t.Errorf("checkpoint %d at inst %d, want %d", i, k.InstRet, wantInst)
		}
	}
}

func TestSimPointRunAggregates(t *testing.T) {
	p := profileOf(t, "stringsearch")
	cfg := boom.MediumBOOM()
	r, err := New(DefaultFlowConfig()).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0.1 || r.IPC() > float64(cfg.DecodeWidth) {
		t.Errorf("weighted IPC %.2f out of range", r.IPC())
	}
	if r.TotalPowerMW() < 3 || r.TotalPowerMW() > 60 {
		t.Errorf("tile power %.1f mW implausible", r.TotalPowerMW())
	}
	if r.PerfPerWatt() <= 0 {
		t.Error("perf/W must be positive")
	}
	if r.NumPoints < 1 || r.DetailedInsts == 0 {
		t.Errorf("no simulation points measured: %d points, %d insts",
			r.NumPoints, r.DetailedInsts)
	}
	if len(r.Slots) != cfg.IntIssueSlots {
		t.Errorf("slot power length %d", len(r.Slots))
	}
}

// TestSpeedupAtExperimentScale checks the methodology's payoff: at
// experiment scale the SimPoint flow simulates a small fraction of the
// program on the detailed model (the paper reports 45× at its 1:300
// interval:program ratio).
func TestSpeedupAtExperimentScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment-scale inputs")
	}
	fc := FlowConfigFor(workloads.ScaleDefault)
	var full, detailed uint64
	for _, name := range []string{"sha", "matmult"} {
		w, err := workloads.Build(name, workloads.ScaleDefault)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(fc).Profile(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(fc).Run(context.Background(), p, boom.LargeBOOM())
		if err != nil {
			t.Fatal(err)
		}
		full += r.TotalInsts
		detailed += r.DetailedInsts
	}
	speedup := float64(full) / float64(detailed)
	if speedup < 3 {
		t.Errorf("speedup %.1f× too small (%d of %d insts simulated)",
			speedup, detailed, full)
	} else {
		t.Logf("detailed-simulation reduction: %.1f×", speedup)
	}
}

// TestSimPointAccuracy validates the methodology: weighted-SimPoint IPC
// must track the full detailed-model IPC closely (the property that makes
// the 45× speedup usable).
func TestSimPointAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full detailed simulations")
	}
	ctx := context.Background()
	r := New(DefaultFlowConfig())
	for _, name := range []string{"bitcount", "sha", "basicmath", "fft"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Profile(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := r.Run(ctx, p, boom.LargeBOOM())
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.RunFull(ctx, w, boom.LargeBOOM())
		if err != nil {
			t.Fatal(err)
		}
		ipcErr, cpiErr := 100*math.Abs(sp.IPC()-full.IPC())/full.IPC(), cpiErrPct(sp, full)
		if ipcErr > 20 || cpiErr > 20 {
			t.Errorf("%s: SimPoint IPC %.3f vs full %.3f (%.1f%% IPC error, %.1f%% CPI error)",
				name, sp.IPC(), full.IPC(), ipcErr, cpiErr)
		} else {
			t.Logf("%s: SimPoint IPC %.3f vs full %.3f (%.1f%% IPC error, %.1f%% CPI error)",
				name, sp.IPC(), full.IPC(), ipcErr, cpiErr)
		}
	}
}

func TestSweepAndSpeedup(t *testing.T) {
	names := []string{"sha", "tarfind", "qsort"}
	sw, err := New(DefaultFlowConfig()).
		Sweep(context.Background(), tcamp(names, []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfgName := range []string{"MediumBOOM", "MegaBOOM"} {
		for _, n := range names {
			if sw.Results[cfgName][n] == nil {
				t.Fatalf("missing result %s/%s", cfgName, n)
			}
		}
	}
	// Sha IPC must grow with core width; tarfind must be the slowest.
	med, mega := sw.Results["MediumBOOM"], sw.Results["MegaBOOM"]
	if mega["sha"].IPC() <= med["sha"].IPC() {
		t.Errorf("sha IPC: mega %.2f vs medium %.2f", mega["sha"].IPC(), med["sha"].IPC())
	}
	if tar := mega["tarfind"].IPC(); tar >= mega["sha"].IPC() {
		t.Errorf("tarfind IPC %.2f should trail sha %.2f", tar, mega["sha"].IPC())
	}
	// Medium perf/W should beat Mega on most of these workloads (Fig. 11).
	better := 0
	for _, n := range names {
		if med[n].PerfPerWatt() > mega[n].PerfPerWatt() {
			better++
		}
	}
	if better < 2 {
		t.Errorf("MediumBOOM should win perf/W on most workloads; won %d of %d", better, len(names))
	}
}

func TestFlowDeterminism(t *testing.T) {
	a := profileOf(t, "patricia")
	b := profileOf(t, "patricia")
	if a.TotalInsts != b.TotalInsts || a.NumSimPoints() != b.NumSimPoints() ||
		a.Selection.K != b.Selection.K {
		t.Fatal("profiling is not deterministic")
	}
	cfg := boom.LargeBOOM()
	ra, err := New(DefaultFlowConfig()).Run(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(DefaultFlowConfig()).Run(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.Cycles != rb.Stats.Cycles || ra.IPC() != rb.IPC() {
		t.Fatal("simpoint measurement is not deterministic")
	}
}

// TestPowerAccuracySimPointVsFull: the weighted SimPoint power must track
// the full-run power (the flow's other headline quantity besides IPC).
func TestPowerAccuracySimPointVsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full detailed simulations")
	}
	fc := DefaultFlowConfig()
	cfg := boom.MediumBOOM()
	for _, name := range []string{"bitcount", "sha"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(fc).Profile(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := New(fc).Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w2, _ := workloads.Build(name, workloads.ScaleTiny)
		full, err := New(fc).RunFull(context.Background(), w2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(sp.TotalPowerMW()-full.TotalPowerMW()) / full.TotalPowerMW()
		if rel > 0.12 {
			t.Errorf("%s: simpoint power %.2f vs full %.2f (%.0f%% error)",
				name, sp.TotalPowerMW(), full.TotalPowerMW(), 100*rel)
		}
	}
}

// TestCheckpointFilesDriveTheFlow: checkpoints survive ckpt.SerializeAll
// and DeserializeAll — the one codec, over an empty memory — and still
// produce identical measurements.
func TestCheckpointFilesDriveTheFlow(t *testing.T) {
	fc := DefaultFlowConfig()
	p := profileOf(t, "stringsearch")
	cfg := boom.MediumBOOM()
	direct, err := New(fc).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.SerializeAll(&buf, p.Checkpoints); err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints, err = ckpt.DeserializeAll(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := New(fc).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stats.Cycles != reloaded.Stats.Cycles || direct.IPC() != reloaded.IPC() {
		t.Fatalf("serialized checkpoints changed the measurement: %d vs %d cycles",
			direct.Stats.Cycles, reloaded.Stats.Cycles)
	}
}

// TestPointsBracketAggregate: per-point phase results must be present and
// their weights must sum to the coverage.
func TestPointsBracketAggregate(t *testing.T) {
	p := profileOf(t, "bitcount")
	r, err := New(DefaultFlowConfig()).Run(context.Background(), p, boom.LargeBOOM())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != r.NumPoints {
		t.Fatalf("points %d, expected %d", len(r.Points), r.NumPoints)
	}
	var wsum float64
	for _, pt := range r.Points {
		wsum += pt.Weight
		if pt.IPC <= 0 || pt.PowerMW <= 0 {
			t.Errorf("degenerate point %+v", pt)
		}
	}
	if math.Abs(wsum-r.Coverage) > 1e-9 {
		t.Errorf("point weights sum %.4f != coverage %.4f", wsum, r.Coverage)
	}
}

// TestParallelSweepDeterminism: the concurrent sweep must be bit-identical
// to itself run-to-run (each measurement is an isolated core+CPU pair).
func TestParallelSweepDeterminism(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}
	a, err := New(DefaultFlowConfig()).Sweep(context.Background(), tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultFlowConfig()).Sweep(context.Background(), tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		for _, n := range names {
			ra, rb := a.Results[cfg.Name][n], b.Results[cfg.Name][n]
			if ra.Stats.Cycles != rb.Stats.Cycles || ra.IPC() != rb.IPC() ||
				ra.TotalPowerMW() != rb.TotalPowerMW() {
				t.Errorf("%s/%s differs across parallel sweeps", cfg.Name, n)
			}
		}
	}
}

func TestFlowErrorPaths(t *testing.T) {
	sha, _ := workloads.Build("sha", workloads.ScaleTiny)
	r := New(DefaultFlowConfig())
	p, err := r.Profile(context.Background(), sha)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), p, boom.Config{Name: "nope"}); err == nil {
		t.Error("an invalid design point must error")
	}
	if _, err := r.RunFull(context.Background(), sha, boom.Config{Name: "nope"}); err == nil {
		t.Error("an invalid design point must error in a full run")
	}
	if _, err := New(DefaultFlowConfig()).
		Sweep(context.Background(), tcamp([]string{"nope"}, []boom.Config{boom.MediumBOOM()})); err == nil {
		t.Error("sweep with unknown workload must error")
	}
	// Invalid simpoint config surfaces from profiling.
	fc := DefaultFlowConfig()
	fc.SimPoint.Dims = 0
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fc).Profile(context.Background(), w); err == nil {
		t.Error("invalid simpoint config must error")
	}
}

func TestRunFullMatchesDirectModel(t *testing.T) {
	// RunFull must agree with driving the model by hand.
	fc := DefaultFlowConfig()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(fc).RunFull(context.Background(), w, boom.MediumBOOM())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := workloads.Build("bitcount", workloads.ScaleTiny)
	cpu, _ := w2.NewCPU()
	core, err := boom.New(boom.MediumBOOM())
	if err != nil {
		t.Fatal(err)
	}
	ts := &traceSource{cpu: cpu}
	if _, err := core.RunSource(ts, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if ts.err != nil {
		t.Fatal(ts.err)
	}
	if full.Stats.Cycles != core.Stats().Cycles || full.Stats.Insts != core.Stats().Insts {
		t.Fatalf("RunFull %d/%d vs direct %d/%d",
			full.Stats.Insts, full.Stats.Cycles, core.Stats().Insts, core.Stats().Cycles)
	}
}

// TestRunFullAllocCeiling holds a full run's allocations (tiny sha,
// MediumBOOM, -j 1, no cache) within 3 % of their measured counts: the
// bound the benchmark puts on full-detailed's allocs_k, so a regression
// fails here as well as there. A full run restores the workload's entry
// checkpoint, so its memory shares the entry image's pages instead of
// copying the program in. A new Runner's first RunFull sizes the slot's
// timing core and its CPU's memory; every later one Resets the core and
// the CPU its free list kept, so none of the core's tables and none of the
// memory's page frames is allocated again.
func TestRunFullAllocCeiling(t *testing.T) {
	const (
		first  = 65 // allocs of a new Runner's first RunFull, with and without -race
		repeat = 14 // allocs of each later RunFull on the same Runner
	)
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := boom.MediumBOOM()
	var runErr error
	runFull := func(r *Runner) {
		if _, err := r.RunFull(context.Background(), w, cfg); err != nil {
			runErr = err
		}
	}
	// AllocsPerRun makes one warm-up call before the counted ones, so
	// each call gets a Runner of its own.
	fresh := make([]*Runner, 3)
	for i := range fresh {
		fresh[i] = New(DefaultFlowConfig(), WithParallelism(1))
	}
	next := 0
	firstAllocs := testing.AllocsPerRun(len(fresh)-1, func() {
		runFull(fresh[next])
		next++
	})
	r := New(DefaultFlowConfig(), WithParallelism(1))
	repeatAllocs := testing.AllocsPerRun(2, func() { runFull(r) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs for a new Runner's first RunFull, %.0f per later one", firstAllocs, repeatAllocs)
	for _, c := range []struct {
		what     string
		allocs   float64
		measured int
	}{
		{"a new Runner's first RunFull", firstAllocs, first},
		{"a repeated RunFull", repeatAllocs, repeat},
	} {
		if ceiling := float64(c.measured) * 1.03; c.allocs > ceiling {
			t.Errorf("%s allocates %.0f times, over its ceiling of %.0f (measured %d)", c.what, c.allocs, ceiling, c.measured)
		}
	}
}

// TestRunAllocCeiling holds a repeated checkpointed Run (tiny qsort,
// MediumBOOM, -j 1, no cache) within 3 % of its measured allocation count,
// with no page frame among them. A worker slot keeps its functional CPU
// as it keeps its timing core: each point restores its checkpoint into the
// memory the slot's previous point left (mem.Memory.Reset), whose owned
// pages become the frames of the new point's copy-on-write copies and
// created pages, so once the slot has run the largest point nothing
// page-sized is allocated again.
func TestRunAllocCeiling(t *testing.T) {
	const repeat = 72 // allocs of each later Run on the same Runner, with and without -race
	p := profileOf(t, "qsort")
	cfg := boom.MediumBOOM()
	r := New(DefaultFlowConfig(), WithParallelism(1))
	var runErr error
	run := func() {
		if _, err := r.Run(context.Background(), p, cfg); err != nil {
			runErr = err
		}
	}
	run() // builds the slot's core and the frames of its CPU's memory
	frames := pageFrameAllocs()
	allocs := testing.AllocsPerRun(3, run)
	frames = pageFrameAllocs() - frames
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs per repeated Run of %d points, %d page-sized in 4", allocs, p.NumSimPoints(), frames)
	if ceiling := float64(repeat) * 1.03; allocs > ceiling {
		t.Errorf("a repeated Run allocates %.0f times, over its ceiling of %.0f (measured %d)", allocs, ceiling, repeat)
	}
	if frames != 0 {
		t.Errorf("4 repeated Runs allocated %d page-sized objects; a restored point's pages must reuse the slot's frames", frames)
	}
}

// pageFrameAllocs is how many objects of mem.PageSize's size class the
// process has allocated so far.
func pageFrameAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range ms.BySize {
		if c.Size == mem.PageSize {
			return c.Mallocs
		}
	}
	return 0
}
