package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// TestCampaignPlusOneConfig is the traffic after a first campaign — the
// same workloads on one more design point: the probe finds a cell missing,
// so each chain is read once, in full, exactly as before there was a
// probe; the six finished cells hit, the three new ones are measured, and
// what is served equals a cold run of the larger campaign.
func TestCampaignPlusOneConfig(t *testing.T) {
	ctx := context.Background()
	names := []string{"sha", "bitcount", "qsort"}
	cfgs := boom.Configs()
	fc := core.DefaultFlowConfig()
	small := core.NewCampaign(names, cfgs[:2], workloads.ScaleTiny)
	large := core.NewCampaign(names, cfgs, workloads.ScaleTiny)

	dir := t.TempDir()
	if _, err := core.New(fc, core.WithCache(dir), core.WithParallelism(4)).Sweep(ctx, small); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	got, err := core.New(fc, core.WithCache(dir), core.WithParallelism(4), core.WithMetrics(reg)).Sweep(ctx, large)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.New(fc, core.WithParallelism(4)).Sweep(ctx, large)
	if err != nil {
		t.Fatal(err)
	}

	n := int64(len(names))
	for name, want := range map[string]int64{
		"artifact.bbv.hit":        n,
		"artifact.select.hit":     n,
		"artifact.checkpoint.hit": n,
		"artifact.measure.hit":    2 * n,
		"artifact.measure.miss":   n,
		"artifact.miss":           n,
		"artifact.evict":          0,
		"sim.insts":               0,
	} {
		if v := reg.Counter(name).Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	a, err := serve.EncodeSweep("x", large.Scale, got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.EncodeSweep("x", large.Scale, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("campaign-plus-one differs from a cold run of the larger campaign:\n%s\nvs\n%s", a, b)
	}
	for _, name := range names {
		p := got.Profiles[name]
		if p.Vectors == nil || p.NumBlocks == 0 || p.Checkpoints == nil || p.WarmupInsts == nil || p.TotalInsts == 0 {
			t.Errorf("%s: a workload with a measured cell must hold every payload field", name)
		}
	}
}
