// Package dse implements parametric design-space exploration over the
// BOOM timing model: a campaign is a base design point plus per-parameter
// sweep axes (ROB size, machine width, issue widths, IQ/LSQ depths, cache
// geometry, branch-predictor choice), expanded into the cross product of
// validated boom.Config design points. The paper stops at three fixed
// configurations; this package turns boom.Config's scalar-only registry
// into a generator of hundreds of named design points that batch through
// core.Runner or cmd/boomd like any other campaign.
//
// Expansion is deterministic: axes are normalized into sorted-parameter
// order, values keep their given order, and every expanded point gets a
// canonical name — base+param=value+… with parameters sorted — so the
// same spec always yields the same configs in the same order, and the
// campaign fingerprint (which hashes every field of every config) is a
// stable identity for caches and jobs.
//
// The profile/select/checkpoint stages of the flow are config-independent,
// so an N-point expansion still costs one profile per workload: the
// content-addressed artifact cache keys those stages off workload identity
// alone, and every design point's measurement feeds off the same chain.
// That economy is what makes frontier-scale campaigns practical.
//
// The companion half of the package (frontier.go) reduces a finished
// campaign to Pareto frontiers of IPC vs perf-per-watt and an
// efficiency-optimal recommendation per workload.
package dse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/boom"
)

// MaxPoints bounds an expansion: a campaign beyond this many design
// points is rejected rather than silently truncated. It matches the
// admission-control posture of the serving layer — a runaway cross
// product should fail loudly at the API boundary, not melt a worker.
const MaxPoints = 4096

// Setting is one parameter assignment ("rob" = "96").
type Setting struct {
	Param string
	Value string
}

// Axis is one sweep dimension: a parameter and the values it takes.
type Axis struct {
	Param  string
	Values []string
}

// Spec is a parametric campaign: a base design point, fixed overrides
// applied to it, and the axes whose cross product is explored.
type Spec struct {
	// Base is a registered design-point name ("MediumBOOM"/"medium", …).
	// Empty means MediumBOOM.
	Base string
	// Overrides pin parameters on the base before the axes apply. A
	// parameter may appear in Overrides or Axes, not both.
	Overrides []Setting
	// Axes are the sweep dimensions. Expansion normalizes them into
	// sorted-parameter order; values keep their given order.
	Axes []Axis
}

// param is one tunable surface of boom.Config.
type param struct {
	name  string
	doc   string
	apply func(c *boom.Config, v string) error
}

// posInt parses a strictly positive integer axis value.
func posInt(v string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("want a positive integer, got %q", v)
	}
	return n, nil
}

// intParam builds an apply func setting one int field.
func intParam(set func(c *boom.Config, n int)) func(*boom.Config, string) error {
	return func(c *boom.Config, v string) error {
		n, err := posInt(v)
		if err != nil {
			return err
		}
		set(c, n)
		return nil
	}
}

// params is the exploration surface, sorted by name. Every entry maps a
// stable external name onto boom.Config fields; dependent structural
// minima (register-file ports under a wider issue) are derived here so an
// expanded point carries the cost of what it widens, the mechanism behind
// the paper's port-scaling takeaways.
var params = []param{
	{"btb", "BTB entries", intParam(func(c *boom.Config, n int) { c.BTBEntries = n })},
	{"dcache-kib", "D-cache size in KiB", intParam(func(c *boom.Config, n int) { c.DCacheKiB = n })},
	{"dcache-mshrs", "D-cache MSHRs", intParam(func(c *boom.Config, n int) { c.DCacheMSHRs = n })},
	{"dcache-ways", "D-cache associativity", intParam(func(c *boom.Config, n int) { c.DCacheWays = n })},
	{"fetch-buffer", "fetch-buffer entries", intParam(func(c *boom.Config, n int) { c.FetchBufferEntries = n })},
	{"fetch-width", "front-end fetch width", intParam(func(c *boom.Config, n int) { c.FetchWidth = n })},
	{"fp-iq", "FP issue-queue slots", intParam(func(c *boom.Config, n int) { c.FpIssueSlots = n })},
	{"fp-issue-width", "FP issue width", intParam(func(c *boom.Config, n int) { c.FpIssueWidth = n })},
	{"fp-phys", "FP physical registers", intParam(func(c *boom.Config, n int) { c.FpPhysRegs = n })},
	{"icache-kib", "I-cache size in KiB", intParam(func(c *boom.Config, n int) { c.ICacheKiB = n })},
	{"icache-ways", "I-cache associativity", intParam(func(c *boom.Config, n int) { c.ICacheWays = n })},
	{"int-iq", "integer issue-queue slots", intParam(func(c *boom.Config, n int) { c.IntIssueSlots = n })},
	{"int-issue-width", "integer issue width (raises RF ports to the structural minimum)",
		intParam(func(c *boom.Config, n int) {
			c.IntIssueWidth = n
			// Widening issue is not free: the merged register file must
			// feed 2 source reads and absorb 1 writeback per issued µop,
			// so ports rise to the structural minimum (and never shrink).
			if min := 2*n + 2; c.IntRFReadPorts < min {
				c.IntRFReadPorts = min
			}
			if min := n + 1; c.IntRFWritePorts < min {
				c.IntRFWritePorts = min
			}
		})},
	{"int-phys", "integer physical registers", intParam(func(c *boom.Config, n int) { c.IntPhysRegs = n })},
	{"l2-kib", "L2 size in KiB", intParam(func(c *boom.Config, n int) { c.L2KiB = n })},
	{"l2-ways", "L2 associativity", intParam(func(c *boom.Config, n int) { c.L2Ways = n })},
	{"ldq", "load-queue entries", intParam(func(c *boom.Config, n int) { c.LdqEntries = n })},
	{"lsq", "load- and store-queue entries together", intParam(func(c *boom.Config, n int) {
		c.LdqEntries, c.StqEntries = n, n
	})},
	{"mem-iq", "memory issue-queue slots", intParam(func(c *boom.Config, n int) { c.MemIssueSlots = n })},
	{"mem-issue-width", "memory execution units", intParam(func(c *boom.Config, n int) { c.MemIssueWidth = n })},
	{"predictor", "branch direction predictor: tage|gshare", func(c *boom.Config, v string) error {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "tage":
			c.Predictor = boom.PredictorTAGE
		case "gshare":
			c.Predictor = boom.PredictorGShare
		default:
			return fmt.Errorf("want tage or gshare, got %q", v)
		}
		return nil
	}},
	{"ras", "return-address-stack entries", intParam(func(c *boom.Config, n int) { c.RASEntries = n })},
	{"rob", "reorder-buffer entries", intParam(func(c *boom.Config, n int) { c.RobEntries = n })},
	{"stq", "store-queue entries", intParam(func(c *boom.Config, n int) { c.StqEntries = n })},
	{"width", "machine width (decode and retire together)", intParam(func(c *boom.Config, n int) {
		c.DecodeWidth, c.RetireWidth = n, n
	})},
}

// Params returns the supported parameter names with one-line docs, sorted
// — the CLI help surface.
func Params() []string {
	out := make([]string, len(params))
	for i, p := range params {
		out[i] = fmt.Sprintf("%-16s %s", p.name, p.doc)
	}
	return out
}

func paramByName(name string) (*param, error) {
	i := sort.Search(len(params), func(i int) bool { return params[i].name >= name })
	if i < len(params) && params[i].name == name {
		return &params[i], nil
	}
	return nil, fmt.Errorf("dse: unknown parameter %q (see dse -params for the surface)", name)
}

// canonValue re-formats an accepted axis value into its canonical form,
// so "064" and "64" (or "TAGE" and "tage") name the same design point.
func canonValue(p *param, v string) string {
	if p.name == "predictor" {
		return strings.ToLower(strings.TrimSpace(v))
	}
	if n, err := posInt(v); err == nil {
		return strconv.Itoa(n)
	}
	return strings.TrimSpace(v)
}

// Expand materializes a spec into validated design points: the base
// config (resolved through the registry), overrides applied, then the
// full cross product of the axes in sorted-parameter order. Every point
// is named canonically (base+param=value+…, parameters sorted) and must
// pass boom.Config.Validate — an invalid corner (a width inversion, a
// non-power-of-two geometry) fails the whole expansion with the offending
// point named, never silently drops it.
func Expand(spec Spec) ([]boom.Config, error) {
	baseName := spec.Base
	if baseName == "" {
		baseName = "MediumBOOM"
	}
	base, err := boom.ConfigByName(baseName)
	if err != nil {
		return nil, err
	}

	// Normalize overrides and axes: resolve parameters, canonicalize
	// values, reject duplicates and cross-listing.
	used := map[string]string{} // param → "override" | "axis"
	overrides := make([]Setting, 0, len(spec.Overrides))
	for _, s := range spec.Overrides {
		p, err := paramByName(s.Param)
		if err != nil {
			return nil, err
		}
		if used[p.name] != "" {
			return nil, fmt.Errorf("dse: parameter %q listed twice", p.name)
		}
		used[p.name] = "override"
		overrides = append(overrides, Setting{p.name, canonValue(p, s.Value)})
	}
	axes := make([]Axis, 0, len(spec.Axes))
	total := 1
	for _, a := range spec.Axes {
		p, err := paramByName(a.Param)
		if err != nil {
			return nil, err
		}
		if used[p.name] != "" {
			return nil, fmt.Errorf("dse: parameter %q listed twice", p.name)
		}
		used[p.name] = "axis"
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("dse: axis %q has no values", p.name)
		}
		vals := make([]string, 0, len(a.Values))
		seen := map[string]bool{}
		for _, v := range a.Values {
			cv := canonValue(p, v)
			if seen[cv] {
				return nil, fmt.Errorf("dse: axis %q repeats value %q", p.name, cv)
			}
			seen[cv] = true
			vals = append(vals, cv)
		}
		axes = append(axes, Axis{p.name, vals})
		if total > MaxPoints/len(vals) {
			return nil, fmt.Errorf("dse: campaign exceeds %d design points", MaxPoints)
		}
		total *= len(vals)
	}
	sort.Slice(overrides, func(i, j int) bool { return overrides[i].Param < overrides[j].Param })
	sort.Slice(axes, func(i, j int) bool { return axes[i].Param < axes[j].Param })

	// Apply overrides to the base once; they are shared by every point.
	for _, s := range overrides {
		p, _ := paramByName(s.Param)
		if err := p.apply(&base, s.Value); err != nil {
			return nil, fmt.Errorf("dse: override %s=%s: %v", s.Param, s.Value, err)
		}
	}

	// Cross product in lexicographic order over the sorted axes.
	idx := make([]int, len(axes))
	out := make([]boom.Config, 0, total)
	for {
		cfg := base
		var suffix strings.Builder
		for _, s := range overrides {
			fmt.Fprintf(&suffix, "+%s=%s", s.Param, s.Value)
		}
		for ai, a := range axes {
			p, _ := paramByName(a.Param)
			v := a.Values[idx[ai]]
			if err := p.apply(&cfg, v); err != nil {
				return nil, fmt.Errorf("dse: axis %s=%s: %v", a.Param, v, err)
			}
			fmt.Fprintf(&suffix, "+%s=%s", a.Param, v)
		}
		cfg.Name = base.Name + suffix.String()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("dse: design point %s: %v", cfg.Name, err)
		}
		out = append(out, cfg)

		// Odometer increment: last axis varies fastest.
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	return out, nil
}

// ParseAxes parses the CLI axis grammar: semicolon-separated axes, each
// "param=v1,v2,…". Example: "rob=64,96,128;predictor=tage,gshare".
func ParseAxes(s string) ([]Axis, error) {
	var out []Axis
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, vs, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return nil, fmt.Errorf("dse: bad axis %q (want param=v1,v2,…)", part)
		}
		var vals []string
		for _, v := range strings.Split(vs, ",") {
			if v = strings.TrimSpace(v); v != "" {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("dse: axis %q has no values", strings.TrimSpace(k))
		}
		out = append(out, Axis{strings.TrimSpace(k), vals})
	}
	return out, nil
}

// ParseOverrides parses "param=v;param2=v2" into settings.
func ParseOverrides(s string) ([]Setting, error) {
	axes, err := ParseAxes(s)
	if err != nil {
		return nil, err
	}
	out := make([]Setting, 0, len(axes))
	for _, a := range axes {
		if len(a.Values) != 1 {
			return nil, fmt.Errorf("dse: override %q must have exactly one value", a.Param)
		}
		out = append(out, Setting{a.Param, a.Values[0]})
	}
	return out, nil
}
