package serve

import (
	"fmt"
	"strconv"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// SweepRequest is the POST /v1/sweeps body. Two request shapes share the
// endpoint:
//
// v1 (named configs) — the original body, still accepted unchanged. Its
// campaign fingerprints are pinned (request_test.go) and move only with a
// deliberate schema bump in internal/core/cache.go, which orphans every
// fabric fragment and cache entry written before it:
//
//	{"workloads": ["sha"], "configs": ["medium", "mega"], "scale": "tiny"}
//
// v2 (parametric) — a base design point plus config_overrides and sweep
// axes, expanded server-side through internal/dse into the cross product
// of validated design points:
//
//	{"workloads": ["sha", "qsort"],
//	 "base": "medium",
//	 "config_overrides": {"predictor": "gshare"},
//	 "axes": {"rob": [64, 96, 128], "int-issue-width": [2, 3]},
//	 "scale": "tiny"}
//
// "configs" is mutually exclusive with base/config_overrides/axes. Axis
// values may be JSON numbers or strings; expansions beyond dse.MaxPoints
// are rejected at admission. Empty lists keep their v1 meaning: all
// workloads, the paper's three design points.
type SweepRequest struct {
	// Workloads lists benchmark names (see internal/workloads.Names).
	// Empty = all of them, in Table II order.
	Workloads []string `json:"workloads,omitempty"`
	// Configs lists named BOOM design points ("MediumBOOM"/"medium", …).
	// Empty (with no parametric fields) = the paper's three design points
	// in Table I order.
	Configs []string `json:"configs,omitempty"`
	// Scale is "tiny", "default" or "paper"; empty = "tiny".
	Scale string `json:"scale,omitempty"`

	// Base names the design point parametric expansion starts from
	// (default MediumBOOM). Setting any parametric field switches the
	// request to the v2 shape.
	Base string `json:"base,omitempty"`
	// ConfigOverrides pin parameters on the base before the axes apply.
	ConfigOverrides map[string]AxisValue `json:"config_overrides,omitempty"`
	// Axes maps parameter names to the values each sweeps over; the
	// campaign is the cross product. Expansion order is deterministic
	// (parameters sorted by name, values in request order).
	Axes map[string][]AxisValue `json:"axes,omitempty"`

	// Sampling is the optional v2 sampling block. Absent, the campaign
	// runs under the server's default spec (zero unless the daemon sets
	// one), which for a zero spec reproduces the pre-sampling campaign
	// fingerprints byte-for-byte:
	//
	//	{"workloads": ["dijkstra"], "configs": ["medium"],
	//	 "sampling": {"features": "bbv+mav", "warmup": "5x", "interval": 20000}}
	Sampling *SamplingRequest `json:"sampling,omitempty"`
}

// SamplingRequest is the wire form of sampling.Spec. Warmup is the CLI
// spelling ("none", "<n>" fixed instructions, "<n>x" proportional) rather
// than the three policy fields, so a request can never submit an
// inconsistent policy triple.
type SamplingRequest struct {
	// Interval is the profiling interval in instructions (0 = the
	// workload's Table II fallback).
	Interval int64 `json:"interval,omitempty"`
	// Features is "bbv" or "bbv+mav" ("" = "bbv").
	Features string `json:"features,omitempty"`
	// Dims overrides SimPoint projection dimensionality (0 = flow default).
	Dims int `json:"dims,omitempty"`
	// MaxK overrides the SimPoint k ceiling (0 = flow default).
	MaxK int `json:"max_k,omitempty"`
	// Warmup is "", "none", "<n>", or "<n>x".
	Warmup string `json:"warmup,omitempty"`
}

// spec resolves the request block into the campaign's sampling.Spec.
func (sr *SamplingRequest) spec() (sampling.Spec, error) {
	if sr == nil {
		return sampling.Spec{}, nil
	}
	return sampling.ParseSpec(sr.Interval, sr.Features, sr.Dims, sr.MaxK, sr.Warmup)
}

// AxisValue is one axis value, accepted as a JSON string or number —
// {"rob": [64, "96"]} both work — and carried canonically as a string.
type AxisValue string

// UnmarshalJSON accepts a JSON string or number.
func (v *AxisValue) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		s, err := strconv.Unquote(string(b))
		if err != nil {
			return err
		}
		*v = AxisValue(s)
		return nil
	}
	// A number: keep its literal form (dse canonicalizes it).
	if _, err := strconv.ParseFloat(string(b), 64); err != nil {
		return fmt.Errorf("axis value %s is neither a string nor a number", b)
	}
	*v = AxisValue(b)
	return nil
}

// MarshalJSON always emits the string form (the canonical request shape
// boomctl sends).
func (v AxisValue) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(string(v))), nil
}

// resolveRequest validates a request against the same identities the
// sweep engine uses — workload names must be registered, named configs
// resolve through boom.ConfigByName, parametric fields expand through
// internal/dse — and returns the core.Campaign that feeds the campaign
// fingerprint. Everything that passes here is exactly what the artifact
// cache and the fabric's journal fragments key on.
func resolveRequest(req SweepRequest) (core.Campaign, error) {
	var camp core.Campaign
	camp.Scale = workloads.ScaleTiny
	if req.Scale != "" {
		s, err := workloads.ParseScale(req.Scale)
		if err != nil {
			return camp, err
		}
		camp.Scale = s
	}

	if len(req.Workloads) == 0 {
		camp.Workloads = workloads.Names()
	} else {
		camp.Workloads = append([]string(nil), req.Workloads...)
	}

	sspec, err := req.Sampling.spec()
	if err != nil {
		return camp, err
	}
	camp.Sampling = sspec

	parametric := req.Base != "" || len(req.Axes) > 0 || len(req.ConfigOverrides) > 0
	switch {
	case parametric && len(req.Configs) > 0:
		return camp, fmt.Errorf("configs is mutually exclusive with base/config_overrides/axes")
	case parametric:
		spec := dse.Spec{Base: req.Base}
		for k, v := range req.ConfigOverrides {
			spec.Overrides = append(spec.Overrides, dse.Setting{Param: k, Value: string(v)})
		}
		for k, vs := range req.Axes {
			ax := dse.Axis{Param: k}
			for _, v := range vs {
				ax.Values = append(ax.Values, string(v))
			}
			spec.Axes = append(spec.Axes, ax)
		}
		cfgs, err := dse.Expand(spec)
		if err != nil {
			return camp, err
		}
		camp.Configs = cfgs
	case len(req.Configs) == 0:
		camp.Configs = boom.Configs()
	default:
		for _, n := range req.Configs {
			cfg, err := boom.ConfigByName(n)
			if err != nil {
				return camp, err
			}
			camp.Configs = append(camp.Configs, cfg)
		}
	}
	if err := camp.Validate(); err != nil {
		return camp, err
	}
	return camp, nil
}
