// Package sampling defines SamplingSpec, the first-class description of
// how a campaign samples its workloads: interval length, clustering
// feature set (BBV alone or BBV ⊕ MAV), SimPoint projection dimensions
// and k ceiling, and the warm-up policy executed before each measured
// SimPoint. Historically every one of these knobs was an implicit
// constant scattered across the tree — per-workload IntervalSize in
// internal/workloads, hardcoded Dims/MaxK in internal/simpoint's flow
// defaults, and warm-up length buried in core.FlowConfig. A Spec makes
// them campaign parameters: it rides on core.Campaign, is versioned into
// every artifact key and the campaign fingerprint, crosses the serve v2
// wire as the `sampling` request block, and is replayed bit-identically
// by fabric workers.
//
// The zero value is load-bearing: Spec{} means "legacy behavior", and
// every fingerprint, artifact key, and golden digest produced by a
// zero-spec campaign is byte-identical to what the engine produced
// before the type existed. Non-zero specs version into schema-2 keys so
// cold/warm cache identity holds per spec.
package sampling

import (
	"fmt"
	"strconv"
	"strings"
)

// Feature sets. Empty means FeaturesBBV (legacy).
const (
	// FeaturesBBV clusters on basic-block vectors alone, as the paper does.
	FeaturesBBV = "bbv"
	// FeaturesBBVMAV concatenates normalized memory-access vectors onto the
	// projected BBV point before clustering, following the Memory Access
	// Vectors result that BBV-only clustering mis-samples memory-bound
	// phases (dijkstra being our canonical offender).
	FeaturesBBVMAV = "bbv+mav"
)

// Warm-up policies. Empty means "flow default": the scale-derived
// core.FlowConfig.WarmupInsts, exactly as before the policy existed.
const (
	// WarmupFlowDefault defers to the scale's FlowConfig (legacy).
	WarmupFlowDefault = ""
	// WarmupNone runs each SimPoint cold: no instructions before measurement.
	WarmupNone = "none"
	// WarmupFixed executes exactly WarmupInsts instructions before each
	// measured interval.
	WarmupFixed = "fixed"
	// WarmupProportional executes WarmupFactor × interval instructions
	// before each measured interval, scaling warm-up with interval length
	// so large-footprint workloads are not measured cache-cold.
	WarmupProportional = "proportional"
)

// DefaultWarmupFactor is the proportional-policy multiplier used when a
// Spec selects WarmupProportional without setting WarmupFactor.
const DefaultWarmupFactor = 5

// Spec is a value type: comparable, JSON-round-trippable with flat
// scalar fields, and hashed field-by-field into artifact keys (so field
// names and order are part of the cache identity — do not rename or
// reorder them).
//
// Every field's zero value means "inherit the legacy default":
//
//	Interval == 0      → Workload.IntervalSize (the per-workload Table II fallback)
//	Features == ""     → "bbv"
//	Dims == 0          → FlowConfig.SimPoint.Dims
//	MaxK == 0          → FlowConfig.SimPoint.MaxK
//	WarmupPolicy == "" → FlowConfig.WarmupInsts
type Spec struct {
	// Interval is the profiling/measurement interval in instructions.
	// 0 consults the workload's IntervalSize fallback.
	Interval int64 `json:"interval,omitempty"`
	// Features is the clustering feature set: "", "bbv", or "bbv+mav".
	Features string `json:"features,omitempty"`
	// Dims overrides the SimPoint random-projection dimensionality.
	Dims int `json:"dims,omitempty"`
	// MaxK overrides the SimPoint k ceiling.
	MaxK int `json:"max_k,omitempty"`
	// WarmupPolicy is "", "none", "fixed", or "proportional".
	WarmupPolicy string `json:"warmup_policy,omitempty"`
	// WarmupInsts is the fixed-policy warm-up length in instructions.
	WarmupInsts int64 `json:"warmup_insts,omitempty"`
	// WarmupFactor is the proportional-policy multiplier (default 5).
	WarmupFactor int `json:"warmup_factor,omitempty"`
}

// Recommended is the fidelity-first spec: BBV ⊕ MAV clustering and
// proportional warm-up. It is what `make fidelity` gates against the
// BBV-only baseline.
func Recommended() Spec {
	return Spec{Features: FeaturesBBVMAV, WarmupPolicy: WarmupProportional, WarmupFactor: DefaultWarmupFactor}
}

// IsZero reports whether s is the legacy spec. Zero specs keep every
// pre-Spec fingerprint and artifact key byte-for-byte.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects specs that cannot be resolved deterministically.
func (s Spec) Validate() error {
	if s.Interval < 0 {
		return fmt.Errorf("sampling: interval %d: must be >= 0", s.Interval)
	}
	switch s.Features {
	case "", FeaturesBBV, FeaturesBBVMAV:
	default:
		return fmt.Errorf("sampling: features %q: want %q or %q", s.Features, FeaturesBBV, FeaturesBBVMAV)
	}
	if s.Dims < 0 {
		return fmt.Errorf("sampling: dims %d: must be >= 0", s.Dims)
	}
	if s.MaxK < 0 {
		return fmt.Errorf("sampling: max_k %d: must be >= 0", s.MaxK)
	}
	switch s.WarmupPolicy {
	case WarmupFlowDefault, WarmupNone, WarmupFixed, WarmupProportional:
	default:
		return fmt.Errorf("sampling: warmup policy %q: want \"\", %q, %q, or %q",
			s.WarmupPolicy, WarmupNone, WarmupFixed, WarmupProportional)
	}
	if s.WarmupInsts < 0 {
		return fmt.Errorf("sampling: warmup insts %d: must be >= 0", s.WarmupInsts)
	}
	if s.WarmupFactor < 0 {
		return fmt.Errorf("sampling: warmup factor %d: must be >= 0", s.WarmupFactor)
	}
	if s.WarmupInsts != 0 && s.WarmupPolicy != WarmupFixed {
		return fmt.Errorf("sampling: warmup insts set but policy is %q, not %q", s.WarmupPolicy, WarmupFixed)
	}
	if s.WarmupFactor != 0 && s.WarmupPolicy != WarmupProportional {
		return fmt.Errorf("sampling: warmup factor set but policy is %q, not %q", s.WarmupPolicy, WarmupProportional)
	}
	return nil
}

// UseMAV reports whether the spec clusters on BBV ⊕ MAV features.
func (s Spec) UseMAV() bool { return s.Features == FeaturesBBVMAV }

// ResolveInterval returns the effective interval: the spec's when set,
// else the workload fallback (Workload.IntervalSize).
func (s Spec) ResolveInterval(fallback int64) int64 {
	if s.Interval > 0 {
		return s.Interval
	}
	return fallback
}

// ResolveWarmup returns the warm-up length in instructions for a
// measured interval of the given length. flowDefault is the scale's
// FlowConfig.WarmupInsts, used by the legacy "" policy.
func (s Spec) ResolveWarmup(interval, flowDefault int64) int64 {
	switch s.WarmupPolicy {
	case WarmupNone:
		return 0
	case WarmupFixed:
		return s.WarmupInsts
	case WarmupProportional:
		f := int64(s.WarmupFactor)
		if f == 0 {
			f = DefaultWarmupFactor
		}
		return f * interval
	default:
		return flowDefault
	}
}

// String renders the non-zero fields compactly for logs, status bodies,
// and the canonical result encoding ("" for the zero spec so legacy
// encodings are untouched).
func (s Spec) String() string {
	if s.IsZero() {
		return ""
	}
	var parts []string
	if s.Features != "" {
		parts = append(parts, "features="+s.Features)
	}
	if s.Interval > 0 {
		parts = append(parts, fmt.Sprintf("interval=%d", s.Interval))
	}
	if s.Dims > 0 {
		parts = append(parts, fmt.Sprintf("dims=%d", s.Dims))
	}
	if s.MaxK > 0 {
		parts = append(parts, fmt.Sprintf("maxk=%d", s.MaxK))
	}
	switch s.WarmupPolicy {
	case WarmupNone:
		parts = append(parts, "warmup=none")
	case WarmupFixed:
		parts = append(parts, fmt.Sprintf("warmup=%d", s.WarmupInsts))
	case WarmupProportional:
		f := s.WarmupFactor
		if f == 0 {
			f = DefaultWarmupFactor
		}
		parts = append(parts, fmt.Sprintf("warmup=%dx", f))
	}
	return strings.Join(parts, " ")
}

// ParseSpec assembles and validates a Spec from its five external
// spellings — the -interval/-features/-sp-dims/-sp-maxk/-warmup flags and
// the serve "sampling" request block — with warm-up in its CLI form (see
// ParseWarmup), so no entry point can build an inconsistent policy triple.
func ParseSpec(interval int64, features string, dims, maxK int, warmup string) (Spec, error) {
	policy, insts, factor, err := ParseWarmup(warmup)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Interval:     interval,
		Features:     features,
		Dims:         dims,
		MaxK:         maxK,
		WarmupPolicy: policy,
		WarmupInsts:  insts,
		WarmupFactor: factor,
	}
	return s, s.Validate()
}

// ParseWarmup maps a CLI warm-up flag value onto policy fields:
//
//	""     → flow default
//	"none" → cold measurement
//	"<n>"  → fixed n instructions
//	"<n>x" → proportional, factor n
//
// It returns the policy triple to store on a Spec.
func ParseWarmup(s string) (policy string, insts int64, factor int, err error) {
	switch {
	case s == "":
		return WarmupFlowDefault, 0, 0, nil
	case s == "none":
		return WarmupNone, 0, 0, nil
	case strings.HasSuffix(s, "x"):
		n, perr := strconv.Atoi(strings.TrimSuffix(s, "x"))
		if perr != nil || n <= 0 {
			return "", 0, 0, fmt.Errorf("sampling: warmup %q: want a positive factor like \"5x\"", s)
		}
		return WarmupProportional, 0, n, nil
	default:
		n, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil || n < 0 {
			return "", 0, 0, fmt.Errorf("sampling: warmup %q: want \"none\", an instruction count, or a factor like \"5x\"", s)
		}
		if n == 0 {
			return WarmupNone, 0, 0, nil
		}
		return WarmupFixed, n, 0, nil
	}
}
