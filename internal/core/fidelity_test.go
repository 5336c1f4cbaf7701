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

// recommendedDetailedWarmErrPct is each workload's CPI error under
// Recommended() at MediumBOOM when every warm-up instruction ran through
// the tick kernel: this gate's output on the commit before functional
// warming (boom.Core.Warm), to four places. Functional warming may cost
// the mean at most functionalWarmMarginPct percentage points over it.
var recommendedDetailedWarmErrPct = map[string]float64{
	"basicmath": 5.8312, "stringsearch": 0.2351, "fft": 1.0416, "ifft": 1.0416,
	"bitcount": 0.0140, "qsort": 3.8321, "dijkstra": 1.1972, "patricia": 0.0060,
	"matmult": 0.0591, "sha": 0.0027, "tarfind": 0.2976,
}

// recommendedDetailedWarmMeanPct is the mean of
// recommendedDetailedWarmErrPct over the eleven workloads, as the gate
// printed it before functional warming.
const recommendedDetailedWarmMeanPct = 1.2326

// functionalWarmMarginPct is how far, in percentage points, Recommended()'s
// mean CPI error may rise over its detailed warm-up's.
const functionalWarmMarginPct = 0.1

// TestFidelityGate is the CPI-error regression gate behind `make
// fidelity`: for every registered workload at MediumBOOM it measures the
// sampled-vs-full CPI error under the BBV-only baseline spec and under
// the recommended BBV ⊕ MAV spec, prints the per-workload delta table
// beside the recommended spec's pinned detailed-warm-up error, and asserts
// that the recommended spec's mean error does not regress against the
// baseline, stays within functionalWarmMarginPct of its detailed warm-up's
// — and that dijkstra, the canonical memory-bound victim of BBV-only
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
	t.Logf("%-14s %12s %12s %10s %16s", "workload", "bbv err%", "bbv+mav err%", "delta", "detailed warm-up")
	for _, name := range names {
		delta := cand[name] - base[name]
		t.Logf("%-14s %12.4f %12.4f %+10.4f %16.4f", name, base[name], cand[name], delta, recommendedDetailedWarmErrPct[name])
		baseMean += base[name]
		candMean += cand[name]
	}
	baseMean /= float64(len(names))
	candMean /= float64(len(names))
	t.Logf("%-14s %12.4f %12.4f %+10.4f %16.4f", "MEAN", baseMean, candMean, candMean-baseMean, recommendedDetailedWarmMeanPct)

	if math.IsNaN(candMean) || math.IsNaN(baseMean) {
		t.Fatal("non-finite mean CPI error")
	}
	if candMean > baseMean {
		t.Errorf("mean CPI error regressed under %q: %.3f%% vs %.3f%% for %q",
			candidate, candMean, baseMean, baseline)
	}
	if candMean > recommendedDetailedWarmMeanPct+functionalWarmMarginPct {
		t.Errorf("mean CPI error under %q is %.4f%%, more than %.1f points over its detailed warm-up's %.4f%%",
			candidate, candMean, functionalWarmMarginPct, recommendedDetailedWarmMeanPct)
	}
	if cand["dijkstra"] >= base["dijkstra"] {
		t.Errorf("dijkstra CPI error did not strictly improve: %.3f%% under %q vs %.3f%% under %q",
			cand["dijkstra"], candidate, base["dijkstra"], baseline)
	}
}
