package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// cpiErrPct returns the SimPoint-estimated CPI error vs the full run, in
// percent.
func cpiErrPct(sp, full *Result) float64 {
	spCPI, fullCPI := 1/sp.IPC(), 1/full.IPC()
	return 100 * math.Abs(spCPI-fullCPI) / fullCPI
}

// TestDifferentialAccuracy is the safety net behind the cache: for every
// registered workload at MediumBOOM it (a) checks the SimPoint-estimated
// CPI against the full detailed run within the 20% bound the repo already
// claims (results_paper.txt / TestSimPointAccuracy), and (b) reruns the estimate
// through a warm cache with metrics attached and demands bit-identical
// results — the cache must never change what the pipeline computes.
func TestDifferentialAccuracy(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fc := DefaultFlowConfig()
	// The flow-default unit-test warm-up (10 K insts, half the tiny 20 K
	// interval) is too short for workloads whose working set does not
	// shrink with the instruction stream: dijkstra's 100 KB adjacency
	// matrix leaves every measured interval cache-cold and overestimates
	// CPI by ~2×. Instead of patching FlowConfig here, the campaign
	// carries an explicit proportional warm-up policy (5× the interval =
	// 100 K insts at tiny scale), which is the production-facing fix —
	// and dijkstra's error bound below tightens accordingly.
	cfg := boom.MediumBOOM()
	names := workloads.Names()
	camp := tcamp(names, []boom.Config{cfg})
	camp.Sampling = sampling.Spec{
		WarmupPolicy: sampling.WarmupProportional,
		WarmupFactor: sampling.DefaultWarmupFactor,
	}

	cold := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir))
	sw, err := cold.Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}

	// Full-model baselines, spread over the worker pool like a sweep.
	fulls := make(map[string]*Result, len(names))
	var mu sync.Mutex
	err = cold.runTasks(ctx, taskSet{
		stage: StageMeasure,
		n:     len(names),
		id:    func(i int) taskID { return taskID{kind: "measure", workload: names[i], config: cfg.Name} },
		do: func(ctx context.Context, i int) error {
			w, err := workloads.Build(names[i], workloads.ScaleTiny)
			if err != nil {
				return err
			}
			res, err := cold.RunFull(ctx, w, cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			fulls[names[i]] = res
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-workload CPI error bounds. The blanket bound is the 20% the
	// repo already claims (results_paper.txt / TestSimPointAccuracy); dijkstra —
	// historically the worst offender, fixed by the explicit warm-up
	// policy above — is pinned tighter so a warm-up regression shows up
	// as a bound violation rather than hiding under the blanket.
	bounds := map[string]float64{"dijkstra": 10.0}
	const boundPct = 20.0
	for _, name := range names {
		sp, full := sw.Results[cfg.Name][name], fulls[name]
		if sp.IPC() <= 0 || full.IPC() <= 0 {
			t.Errorf("%s: non-positive IPC (simpoint %.3f, full %.3f)", name, sp.IPC(), full.IPC())
			continue
		}
		bound := boundPct
		if b, ok := bounds[name]; ok {
			bound = b
		}
		if e := cpiErrPct(sp, full); e > bound {
			t.Errorf("%s: SimPoint CPI error %.1f%% exceeds %.0f%% (CPI %.4f vs %.4f)",
				name, e, bound, 1/sp.IPC(), 1/full.IPC())
		}
	}

	// Warm-cache rerun with metrics attached: every stage must hit, and
	// every estimate must come back bit-for-bit.
	reg := metrics.NewRegistry()
	warm := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir), WithMetrics(reg))
	sw2, err := warm.Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		a, b := sw.Results[cfg.Name][name], sw2.Results[cfg.Name][name]
		if math.Float64bits(a.IPC()) != math.Float64bits(b.IPC()) {
			t.Errorf("%s: warm-cache IPC %v not bit-identical to cold %v", name, b.IPC(), a.IPC())
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: warm-cache result differs from cold run", name)
		}
		pa, pb := sw.Profiles[name], sw2.Profiles[name]
		if pa.WallNS != pb.WallNS {
			t.Errorf("%s: warm profile cost %d ≠ cold %d (costs must be restored from the cache)",
				name, pb.WallNS, pa.WallNS)
		}
	}
	if miss := reg.Counter("artifact.miss").Value(); miss != 0 {
		t.Errorf("warm sweep took %d cache misses, want 0", miss)
	}
	if hit := reg.Counter("artifact.hit").Value(); hit == 0 {
		t.Error("warm sweep recorded no cache hits")
	}
}
