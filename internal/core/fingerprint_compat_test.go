package core

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/boom"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// This file is the campaign-fingerprint compatibility suite. The
// fingerprint is the identity that keys journals, boomd jobs and dedupe,
// so it must not drift by accident: a changed hex silently stops every
// existing journal from resuming and re-keys every boomd job. The values
// below pin the current encoding (sweep schema 3: one shape for every
// campaign, the effective sampling spec always hashed). If one of these
// tests fails, the fix is to restore the encoding; the constants move only
// with a deliberate sweepSchema bump, documented in DESIGN §3.
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
	return New(FlowConfigFor(scale), append([]Option{WithScale(scale)}, opts...)...)
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
					"A journal keyed by the pinned ID would no longer resume.", got, tc.want)
			}
		})
	}
}

// TestPinnedJournalResumes writes a journal in the exact on-disk format —
// header keyed by the pinned fingerprint, then "done" records with the
// pinned task labels — and checks that a sweep of that campaign treats
// those tasks as resumed: the fingerprint, the record dialect and the task
// labels are one compatibility surface.
func TestPinnedJournalResumes(t *testing.T) {
	dir := t.TempDir()
	pinned := []journal.Record{
		{Ev: "sweep", ID: fpShaQsortMedium},
		{Ev: "done", Task: "profile/sha", NS: 12345},
		{Ev: "done", Task: "profile/qsort", NS: 23456},
		{Ev: "done", Task: "measure/MediumBOOM/sha", NS: 34567},
	}
	f, err := os.Create(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range pinned {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	r := pinnedRunner(t, workloads.ScaleTiny,
		WithCache(dir), WithResume(true), WithMetrics(reg))
	camp := NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 1 || len(sw.Results["MediumBOOM"]) != 2 {
		t.Fatalf("sweep incomplete after resume: %+v", sw.Results)
	}
	if got := reg.Counter("core.sweep.tasks_resumed").Value(); got != int64(len(pinned)-1) {
		t.Fatalf("tasks_resumed = %d, want %d: the journal's done-set was not honored", got, len(pinned)-1)
	}
}

// TestFingerprintSensitiveToEveryConfigField mutates every field of a
// boom.Config by reflection and requires the campaign fingerprint to
// change. This is what makes parametric design points (internal/dse)
// first-class identities: any knob an axis can turn is part of the
// campaign ID, so two design points never collide in the journal or the
// boomd job table.
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
			t.Errorf("fingerprint blind to boom.Config.%s: two different design points would share a journal", field.Name)
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
