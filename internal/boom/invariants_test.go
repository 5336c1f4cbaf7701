package boom

import (
	"math"
	"testing"

	"repro/internal/workloads"
)

// TestInvariantsWithGShare runs the ablation predictor with per-cycle
// structural checking; the TAGE suite (every workload on every
// configuration) is the stepping half of TestQuietSkipMatchesStepping.
func TestInvariantsWithGShare(t *testing.T) {
	cfg := MediumBOOM()
	cfg.Predictor = PredictorGShare
	w, err := workloads.Build("tarfind", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := w.NewCPU()
	core := mustNew(t, cfg)
	core.CheckInvariants(true)
	mustRun(t, core, traceFrom(t, cpu), math.MaxUint64)
}
