package core

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// Campaign is the unit of sweep identity: the workloads, the design
// points, and the scale they are evaluated at. It replaces the
// (names []string, configs []boom.Config) pairs that used to thread
// through Sweep, the serving layer and the fabric — one value now carries
// everything the campaign fingerprint covers, so the engine cannot be
// handed a workload list and a config list that belong to different
// campaigns.
//
// The zero value is the empty campaign at ScaleTiny; use NewCampaign or a
// composite literal. Configs may be the registry's named trio or design
// points expanded from parametric axes (internal/dse) — the engine does
// not distinguish: every config is a full boom.Config value, and the
// fingerprint hashes every field of every config, so any axis change
// yields a different campaign identity.
type Campaign struct {
	// Workloads lists benchmark names (internal/workloads.Names order is
	// conventional but not required).
	Workloads []string
	// Configs lists the design points. Names must be unique: result maps
	// and fabric cells key cells by (config name, workload name).
	Configs []boom.Config
	// Scale is the workload scale every cell is built at.
	Scale workloads.Scale
	// Sampling parameterizes how every cell is sampled: interval length,
	// clustering feature set, projection dims, k ceiling, warm-up policy.
	// The zero value means the implicit defaults (per-workload interval,
	// BBV-only features, the flow's clustering and warm-up), and defers to
	// the Runner's spec (WithSampling). It is part of the campaign
	// fingerprint like any other spec (see Runner.CampaignID).
	Sampling sampling.Spec
}

// NewCampaign builds a campaign over defensive copies of its inputs.
func NewCampaign(names []string, configs []boom.Config, scale workloads.Scale) Campaign {
	return Campaign{
		Workloads: append([]string(nil), names...),
		Configs:   append([]boom.Config(nil), configs...),
		Scale:     scale,
	}
}

// ConfigNames returns the design-point names in campaign order.
func (c Campaign) ConfigNames() []string {
	out := make([]string, len(c.Configs))
	for i := range c.Configs {
		out[i] = c.Configs[i].Name
	}
	return out
}

// Cells returns the number of (workload, config) measurement cells.
func (c Campaign) Cells() int { return len(c.Workloads) * len(c.Configs) }

// CampaignID fingerprints a campaign under flow parameters fc: the exact
// workload list, configuration list, flow parameters, scale and sampling
// spec (as given: Runner.CampaignID resolves the effective one first; the
// serving layer, whose Runners carry none of their own, fingerprints a
// submission with this before it builds anything). It is the one identity
// of a run: the serving
// layer's job and dedupe ID (internal/serve), so duplicate submissions of
// one campaign collapse onto one job, and the header of every fabric
// journal fragment (internal/fabric). Reuses the artifact cache's canonical
// encoding, so any drift in any input — including any single field of any
// design point, which is how parametric axes (internal/dse) become part of
// the identity — yields a different ID and a stale fragment is ignored
// rather than replayed.
//
// The encoded shape below (an anonymous struct, these field names and
// types, the schema version) is pinned by the fingerprint compatibility
// suite. Do not rename fields, reorder them, or name the struct (the
// canonical encoding hashes the type name, and an anonymous struct encodes
// as ""); a deliberate change bumps sweepSchema, which orphans fragments
// and boomd job IDs but — like every cache key — moves no result byte.
func CampaignID(fc FlowConfig, c Campaign) string {
	return artifact.NewKey("sweep", sweepSchema, struct {
		Names    []string
		Configs  []boom.Config
		Flow     FlowConfig
		Scale    int
		Sampling sampling.Spec
	}{c.Workloads, c.Configs, fc, int(c.Scale), c.Sampling}).Hex()
}

// CampaignID is the package-level CampaignID under this Runner's flow
// parameters and the campaign's effective sampling spec.
func (r *Runner) CampaignID(c Campaign) string {
	c.Sampling = r.effectiveSpec(c)
	return CampaignID(r.fc, c)
}

// ShortID abbreviates a campaign fingerprint to its first 12 hex
// characters: log lines, and the name of a fabric journal fragment.
func ShortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// NewSweep returns the empty Sweep of campaign c under flow parameters fc:
// every requested name recorded, one (empty) result row per design point,
// Sampling as the campaign gives it.
func NewSweep(fc FlowConfig, c Campaign) *Sweep {
	sw := &Sweep{
		Flow:        fc,
		Scale:       c.Scale,
		Sampling:    c.Sampling,
		Names:       append([]string(nil), c.Workloads...),
		ConfigNames: c.ConfigNames(),
		Profiles:    map[string]*Profile{},
		Results:     map[string]map[string]*Result{},
	}
	for _, name := range sw.ConfigNames {
		sw.Results[name] = map[string]*Result{}
	}
	return sw
}

// Validate rejects campaigns the sweep engine cannot run unambiguously:
// empty axes, duplicate workloads or config names (cells are keyed by
// name), unregistered workloads, structurally invalid design points
// (boom.Config.Validate), and unresolvable sampling specs.
func (c Campaign) Validate() error {
	if len(c.Workloads) == 0 {
		return fmt.Errorf("campaign: no workloads")
	}
	if err := c.Sampling.Validate(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if len(c.Configs) == 0 {
		return fmt.Errorf("campaign: no configs")
	}
	known := map[string]bool{}
	for _, n := range workloads.Names() {
		known[n] = true
	}
	seen := map[string]bool{}
	for _, n := range c.Workloads {
		if !known[n] {
			return fmt.Errorf("campaign: unknown workload %q", n)
		}
		if seen[n] {
			return fmt.Errorf("campaign: duplicate workload %q", n)
		}
		seen[n] = true
	}
	seenCfg := map[string]bool{}
	for i := range c.Configs {
		cfg := &c.Configs[i]
		if cfg.Name == "" {
			return fmt.Errorf("campaign: config %d has no name", i)
		}
		if seenCfg[cfg.Name] {
			return fmt.Errorf("campaign: duplicate config %q", cfg.Name)
		}
		seenCfg[cfg.Name] = true
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	return nil
}
