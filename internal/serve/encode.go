package serve

import (
	"encoding/json"
	"math"

	"repro/internal/core"
	"repro/internal/workloads"
)

// SweepResult is the canonical JSON served by GET /v1/sweeps/{id}/result.
// It contains only values that are bit-reproducible across runs — IPC,
// power, coverage, instruction counts — and deliberately no wall-clock
// figures, so encoding a direct Runner.Sweep of the same campaign yields
// byte-identical output whether the sweep was cold, warm-cached, resumed,
// or served over HTTP.
type SweepResult struct {
	ID    string `json:"id"`
	Scale string `json:"scale"`
	// Sampling is the campaign's effective sampling spec rendered
	// compactly; absent for the legacy zero spec, so pre-sampling result
	// bytes are reproduced unchanged.
	Sampling  string      `json:"sampling,omitempty"`
	Workloads []string    `json:"workloads"`
	Configs   []string    `json:"configs"`
	Rows      []ResultRow `json:"rows"`
	// Failed lists "config/workload" pairs with no result (keep-going
	// sweeps render partial campaigns instead of hiding losses).
	Failed []string `json:"failed,omitempty"`
	// SpeedupX is detailed-instruction reduction of the SimPoint flow
	// over full simulation (the paper's headline ratio), computed from
	// instruction counts only.
	SpeedupX float64 `json:"speedup_x"`
}

// ResultRow is one (workload, config) cell of a campaign.
type ResultRow struct {
	Workload      string  `json:"workload"`
	Config        string  `json:"config"`
	IPC           float64 `json:"ipc"`
	PowerMW       float64 `json:"power_mw"`
	PerfPerWatt   float64 `json:"perf_per_watt"`
	Coverage      float64 `json:"coverage"`
	K             int     `json:"k"`
	NumPoints     int     `json:"num_points"`
	TotalInsts    uint64  `json:"total_insts"`
	DetailedInsts uint64  `json:"detailed_insts"` // tick-kernel instructions only (core.Result.DetailedInsts)
}

// EncodeSweep renders a sweep as canonical JSON bytes: rows in request
// order (configs outer, workloads inner — the order Names/ConfigNames
// record), struct-field key order, one trailing newline. Non-finite
// derived ratios are clamped to 0 so the encoding can never fail on a
// degenerate measurement.
func EncodeSweep(id string, scale workloads.Scale, sw *core.Sweep) ([]byte, error) {
	out := SweepResult{
		ID:        id,
		Scale:     scale.String(),
		Sampling:  sw.Sampling.String(),
		Workloads: append([]string{}, sw.Names...),
		Configs:   append([]string{}, sw.ConfigNames...),
		Rows:      []ResultRow{},
	}
	for _, cfg := range sw.ConfigNames {
		for _, name := range sw.Names {
			res := sw.Results[cfg][name]
			if res == nil {
				out.Failed = append(out.Failed, cfg+"/"+name)
				continue
			}
			out.Rows = append(out.Rows, ResultRow{
				Workload:      name,
				Config:        cfg,
				IPC:           finite(res.IPC()),
				PowerMW:       finite(res.TotalPowerMW()),
				PerfPerWatt:   perfPerWatt(res),
				Coverage:      finite(res.Coverage),
				K:             res.K,
				NumPoints:     res.NumPoints,
				TotalInsts:    res.TotalInsts,
				DetailedInsts: res.DetailedInsts,
			})
		}
	}
	out.SpeedupX = finite(sw.SpeedupOf().Speedup())
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// perfPerWatt guards Result.PerfPerWatt's division: a zero-power cell
// yields 0, not +Inf.
func perfPerWatt(res *core.Result) float64 {
	mw := res.TotalPowerMW()
	if !(mw > 0) {
		return 0
	}
	return finite(res.IPC() / (mw / 1000.0))
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
