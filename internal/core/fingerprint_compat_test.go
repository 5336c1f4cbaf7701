package core

import (
	"reflect"
	"testing"

	"repro/internal/boom"
	"repro/internal/workloads"
)

// This file is the campaign-fingerprint compatibility suite. The
// fingerprint is the identity that keys boomd jobs and dedupe, so it must
// not drift by accident: a changed hex silently re-keys every boomd job.
// The values below pin the current encoding (sweep schema 3: one shape for
// every campaign, the effective sampling spec always hashed). If one of
// these tests fails, the fix is to restore the encoding; the constants move
// only with a deliberate sweepSchema bump, documented in DESIGN §3.
const (
	// All 11 workloads x the three named BOOM corners, ScaleTiny flow.
	fpTrioTinyAll = "a028fa37fe00135e3f359a25b54b3851abf11bade9552b9c07f949cde4884542"
	// [sha qsort] x [MediumBOOM], ScaleTiny flow.
	fpShaQsortMedium = "8497ac840446fbc7b8971c55e0534a5db30422acec1f0e5b64cdd88382754ab2"
	// All 11 workloads x the three corners at default scale/flow.
	fpTrioDefaultAll = "24c55e964aa563d1a3323c723e1bb14c4ad82a32d12ba544c43f42e1af7a6542"
)

func pinnedRunner(t *testing.T, scale workloads.Scale, opts ...Option) *Runner {
	t.Helper()
	return New(FlowConfigFor(scale), opts...)
}

// TestPinnedCampaignFingerprints checks three zero-spec campaigns — the
// shapes every CLI default and v1 request body resolves to — against their
// pinned fingerprints.
func TestPinnedCampaignFingerprints(t *testing.T) {
	cases := []struct {
		name  string
		camp  Campaign
		scale workloads.Scale
		want  string
	}{
		{
			name:  "trio-tiny-all",
			camp:  NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny),
			scale: workloads.ScaleTiny,
			want:  fpTrioTinyAll,
		},
		{
			name:  "sha-qsort-medium",
			camp:  NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
			scale: workloads.ScaleTiny,
			want:  fpShaQsortMedium,
		},
		{
			name:  "trio-default-all",
			camp:  NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleDefault),
			scale: workloads.ScaleDefault,
			want:  fpTrioDefaultAll,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedRunner(t, tc.scale).CampaignID(tc.camp)
			if got != tc.want {
				t.Fatalf("fingerprint drifted: got %s, want %s\n"+
					"A boomd job keyed by the pinned ID would no longer collapse onto it.", got, tc.want)
			}
		})
	}
}

// TestSweepIDSensitivity: any campaign input drift — workload set, config
// set, flow parameters, scale — must change the fingerprint.
func TestSweepIDSensitivity(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	base := New(DefaultFlowConfig()).CampaignID(tcamp(names, cfgs))

	if got := New(DefaultFlowConfig()).CampaignID(tcamp(names, cfgs)); got != base {
		t.Error("identical campaign must fingerprint identically")
	}
	if got := New(DefaultFlowConfig()).CampaignID(tcamp([]string{"sha"}, cfgs)); got == base {
		t.Error("workload-set drift not detected")
	}
	if got := New(DefaultFlowConfig()).CampaignID(tcamp(names, []boom.Config{boom.MegaBOOM()})); got == base {
		t.Error("config-set drift not detected")
	}
	fc := DefaultFlowConfig()
	fc.WarmupInsts++
	if got := New(fc).CampaignID(tcamp(names, cfgs)); got == base {
		t.Error("flow-parameter drift not detected")
	}
}

// TestFingerprintSensitiveToEveryConfigField mutates every field of a
// boom.Config by reflection and requires the campaign fingerprint to
// change. This is what makes parametric design points (internal/dse)
// first-class identities: any knob an axis can turn is part of the
// campaign ID, so two design points never collide in the boomd job table.
func TestFingerprintSensitiveToEveryConfigField(t *testing.T) {
	r := pinnedRunner(t, workloads.ScaleTiny)
	base := NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	baseID := r.CampaignID(base)

	rt := reflect.TypeOf(boom.Config{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		cfg := boom.MediumBOOM()
		fv := reflect.ValueOf(&cfg).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(fv.String() + "-mutated")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		default:
			t.Fatalf("boom.Config.%s has kind %s — extend the mutation table so the fingerprint stays sensitive to it", field.Name, fv.Kind())
		}
		mut := NewCampaign([]string{"sha"}, []boom.Config{cfg}, workloads.ScaleTiny)
		if r.CampaignID(mut) == baseID {
			t.Errorf("fingerprint blind to boom.Config.%s: two different design points would share a job ID", field.Name)
		}
	}
}

// TestFingerprintSensitiveToCampaignShape covers the non-config axes of
// identity: workload membership and order, config multiplicity, and scale.
func TestFingerprintSensitiveToCampaignShape(t *testing.T) {
	r := pinnedRunner(t, workloads.ScaleTiny)
	base := NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	baseID := r.CampaignID(base)

	variants := map[string]Campaign{
		"workload dropped": NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"workload added":   NewCampaign([]string{"sha", "qsort", "fft"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"workload reorder": NewCampaign([]string{"qsort", "sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"config added":     NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM(), boom.LargeBOOM()}, workloads.ScaleTiny),
		"scale changed":    NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleDefault),
	}
	for name, camp := range variants {
		if r.CampaignID(camp) == baseID {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}
