package core

import (
	"testing"

	"repro/internal/boom"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// This file pins the interaction between sampling.Spec and the campaign
// fingerprint. Two properties are load-bearing:
//
//  1. The zero spec is one identity however it is spelled: a campaign with
//     Sampling == Spec{}, one that never set it, and a Runner built
//     WithSampling(Spec{}) all produce the pinned zero-spec fingerprint.
//  2. Every spec is part of campaign identity: a non-zero spec must change
//     the fingerprint, and distinct specs must not collide — otherwise a
//     bbv+mav journal could replay against a bbv-only cache.

func shaQsortMedium() Campaign {
	return NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
}

func TestZeroSpecKeepsPinnedFingerprint(t *testing.T) {
	camp := shaQsortMedium()
	camp.Sampling = sampling.Spec{} // explicit zero, same as never set
	if got := pinnedRunner(t, workloads.ScaleTiny).CampaignID(camp); got != fpShaQsortMedium {
		t.Fatalf("explicit zero spec drifted the fingerprint: got %s, want %s", got, fpShaQsortMedium)
	}
	// A Runner carrying the zero spec is equally invisible.
	r := pinnedRunner(t, workloads.ScaleTiny, WithSampling(sampling.Spec{}))
	if got := r.CampaignID(shaQsortMedium()); got != fpShaQsortMedium {
		t.Fatalf("zero runner spec drifted the fingerprint: got %s, want %s", got, fpShaQsortMedium)
	}
}

func TestSpecIsPartOfCampaignIdentity(t *testing.T) {
	r := pinnedRunner(t, workloads.ScaleTiny)

	specs := []sampling.Spec{
		{Features: sampling.FeaturesBBVMAV},
		{Interval: 10_000},
		{WarmupPolicy: sampling.WarmupProportional, WarmupFactor: 5},
		sampling.Recommended(),
	}
	seen := map[string]string{fpShaQsortMedium: "zero spec"}
	for _, spec := range specs {
		camp := shaQsortMedium()
		camp.Sampling = spec
		id := r.CampaignID(camp)
		if prev, dup := seen[id]; dup {
			t.Errorf("spec %q collided with %s (id %s)", spec, prev, id)
		}
		seen[id] = spec.String()
	}
}

// TestRunnerSpecResolution: the campaign's own spec wins; the Runner's
// spec (WithSampling) applies only to campaigns that carry none. The
// fingerprint must follow the same resolution, or a sweep's results would
// be keyed under an identity computed from parameters it did not run with.
func TestRunnerSpecResolution(t *testing.T) {
	spec := sampling.Recommended()

	// Campaign spec set: runner spec must not matter.
	camp := shaQsortMedium()
	camp.Sampling = spec
	plain := pinnedRunner(t, workloads.ScaleTiny).CampaignID(camp)
	other := pinnedRunner(t, workloads.ScaleTiny,
		WithSampling(sampling.Spec{Interval: 40_000})).CampaignID(camp)
	if plain != other {
		t.Fatalf("campaign spec did not win over runner spec: %s vs %s", plain, other)
	}

	// Campaign spec zero: the runner's spec becomes the effective one,
	// and must fingerprint identically to the same spec on the campaign.
	viaRunner := pinnedRunner(t, workloads.ScaleTiny, WithSampling(spec)).CampaignID(shaQsortMedium())
	if viaRunner != plain {
		t.Fatalf("runner-level spec fingerprints differently from campaign-level: %s vs %s", viaRunner, plain)
	}
	if viaRunner == fpShaQsortMedium {
		t.Fatal("non-zero runner spec left the zero-spec fingerprint unchanged")
	}
}

func TestCampaignValidateRejectsBadSpec(t *testing.T) {
	camp := shaQsortMedium()
	camp.Sampling = sampling.Spec{Features: "mav"}
	if err := camp.Validate(); err == nil {
		t.Fatal("campaign with invalid sampling spec passed Validate")
	}
}
