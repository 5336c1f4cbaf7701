package core

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/boom"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// TestFidelityGate is the CPI-error regression gate behind `make
// fidelity`: for every registered workload at MediumBOOM it measures the
// sampled-vs-full CPI error under the BBV-only baseline spec and under
// the recommended BBV ⊕ MAV spec, prints the per-workload delta table,
// and asserts that the recommended spec's mean error does not regress —
// and that dijkstra, the canonical memory-bound victim of BBV-only
// sampling, strictly improves. The flow is deterministic, so the gate is
// exact: any drift is a real fidelity change, not noise.
//
// The run is minutes long (two sweeps plus eleven full-model baselines),
// so it is opt-in via BOOM_FIDELITY=1, mirroring BOOM_MEASURE_SPEEDUP.
func TestFidelityGate(t *testing.T) {
	if os.Getenv("BOOM_FIDELITY") == "" {
		t.Skip("set BOOM_FIDELITY=1 to run the sampling-fidelity gate (minutes)")
	}
	dir := t.TempDir()
	ctx := context.Background()
	fc := DefaultFlowConfig()
	cfg := boom.MediumBOOM()
	names := workloads.Names()
	r := New(fc, WithCache(dir))

	// Full-model CPI baselines, shared by both specs.
	fulls := runFulls(t, r, names, cfg)

	baseline := sampling.Spec{Features: sampling.FeaturesBBV}
	candidate := sampling.Recommended()
	errsFor := func(spec sampling.Spec) map[string]float64 {
		camp := tcamp(names, []boom.Config{cfg})
		camp.Sampling = spec
		sw, err := r.Sweep(ctx, camp)
		if err != nil {
			t.Fatalf("sweep under %q: %v", spec, err)
		}
		out := make(map[string]float64, len(names))
		for _, name := range names {
			out[name] = cpiErrPct(sw.Results[cfg.Name][name], fulls[name])
		}
		return out
	}
	base := errsFor(baseline)
	cand := errsFor(candidate)

	var baseMean, candMean float64
	t.Logf("%-14s %12s %12s %10s", "workload", "bbv err%", "bbv+mav err%", "delta")
	for _, name := range names {
		delta := cand[name] - base[name]
		t.Logf("%-14s %12.2f %12.2f %+10.2f", name, base[name], cand[name], delta)
		baseMean += base[name]
		candMean += cand[name]
	}
	baseMean /= float64(len(names))
	candMean /= float64(len(names))
	t.Logf("%-14s %12.2f %12.2f %+10.2f", "MEAN", baseMean, candMean, candMean-baseMean)

	if math.IsNaN(candMean) || math.IsNaN(baseMean) {
		t.Fatal("non-finite mean CPI error")
	}
	if candMean > baseMean {
		t.Errorf("mean CPI error regressed under %q: %.3f%% vs %.3f%% for %q",
			candidate, candMean, baseMean, baseline)
	}
	if cand["dijkstra"] >= base["dijkstra"] {
		t.Errorf("dijkstra CPI error did not strictly improve: %.3f%% under %q vs %.3f%% under %q",
			cand["dijkstra"], candidate, base["dijkstra"], baseline)
	}
}
