package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// A Runner says how a sweep runs, never what it computes: the campaign is
// the only carrier of a sweep's workloads, configs, scale and sampling
// spec, and a profile a warm sweep left unread is read again by whoever
// runs it, not by the Runner that swept it.

// TestRunnerOptionsNeverMoveASweep: under either campaign spec, no Runner
// option — not even WithSampling or WithScale — moves a sweep's bytes or
// its fingerprint.
func TestRunnerOptionsNeverMoveASweep(t *testing.T) {
	ctx := context.Background()
	fc := core.DefaultFlowConfig()
	runners := []struct {
		name string
		opts []core.Option
	}{
		{"plain", nil},
		{"WithSampling(Recommended)", []core.Option{core.WithSampling(sampling.Recommended())}},
		{"WithSampling(Interval 40000)", []core.Option{core.WithSampling(sampling.Spec{Interval: 40_000})}},
		{"WithScale(ScaleDefault)", []core.Option{core.WithScale(workloads.ScaleDefault)}},
		{"WithParallelism(1)", []core.Option{core.WithParallelism(1)}},
		{"WithParallelism(4)", []core.Option{core.WithParallelism(4)}},
		{"WithRetry(1)", []core.Option{core.WithRetry(1)}},
		{"WithKeepGoing(true)", []core.Option{core.WithKeepGoing(true)}},
		{"WithCache", []core.Option{core.WithCache(t.TempDir())}},
	}
	for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
		camp := core.NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
		camp.Sampling = spec
		var wantID string
		var want []byte
		for _, rc := range runners {
			r := core.New(fc, rc.opts...)
			sw, err := r.Sweep(ctx, camp)
			if err != nil {
				t.Fatalf("spec %q, %s: %v", spec, rc.name, err)
			}
			id := r.CampaignID(camp)
			got, err := serve.EncodeSweep(id, camp.Scale, sw)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				wantID, want = id, got
				continue
			}
			if id != wantID {
				t.Errorf("spec %q, %s: CampaignID %s, plain Runner %s", spec, rc.name, id, wantID)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("spec %q, %s: the sweep differs from a plain Runner's:\n%s\nvs\n%s", spec, rc.name, got, want)
			}
		}
	}
}

// TestRunOnUnreadProfileReadsThroughTheCaller: a warm sweep on Runner A
// leaves sha's payloads unread; Runner B measuring that profile on a new
// config reads the chain through its own cache and registry, A's stay
// untouched, and the bytes are a cold Profile + Run's.
func TestRunOnUnreadProfileReadsThroughTheCaller(t *testing.T) {
	ctx := context.Background()
	fc := core.DefaultFlowConfig()
	dir := t.TempDir()
	camp := core.NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	if _, err := core.New(fc, core.WithCache(dir)).Sweep(ctx, camp); err != nil {
		t.Fatal(err)
	}
	regA := metrics.NewRegistry()
	sw, err := core.New(fc, core.WithCache(dir), core.WithMetrics(regA)).Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	p := sw.Profiles["sha"]
	if p.Vectors != nil || p.Checkpoints != nil {
		t.Fatal("the warm sweep read sha's payloads; the test needs them unread")
	}
	stages := []string{"artifact.bbv.hit", "artifact.checkpoint.hit"}
	before := map[string]int64{}
	for _, name := range stages {
		before[name] = regA.Counter(name).Value()
	}

	regB := metrics.NewRegistry()
	got, err := core.New(fc, core.WithCache(dir), core.WithMetrics(regB)).Run(ctx, p, boom.LargeBOOM())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stages {
		if n := regB.Counter(name).Value(); n != 1 {
			t.Errorf("caller's %s = %d, want 1", name, n)
		}
		if n := regA.Counter(name).Value() - before[name]; n != 0 {
			t.Errorf("the sweeping Runner's %s moved by %d during another Runner's Run", name, n)
		}
	}

	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.New(fc).Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.New(fc).Run(ctx, cold, boom.LargeBOOM())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.EncodeMeasuredResult(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.EncodeMeasuredResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Run on an unread profile differs from a cold Profile + Run")
	}
}
