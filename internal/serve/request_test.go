package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Pinned campaign fingerprints (the same values core's fingerprint
// compatibility suite pins). A v1 (named-config) request body must keep
// resolving to these exact IDs: they key jobs and their single-flight,
// so they move only with a deliberate core sweep-schema bump.
const (
	fpTrioTinyAll    = "a028fa37fe00135e3f359a25b54b3851abf11bade9552b9c07f949cde4884542"
	fpShaQsortMedium = "8497ac840446fbc7b8971c55e0534a5db30422acec1f0e5b64cdd88382754ab2"
	fpTrioDefaultAll = "24c55e964aa563d1a3323c723e1bb14c4ad82a32d12ba544c43f42e1af7a6542"
)

func requestID(t *testing.T, body string) string {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	camp, err := resolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(core.FlowConfigFor(camp.Scale))
	return r.CampaignID(camp)
}

func TestLegacyBodyFingerprintsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"empty body = full trio campaign", `{}`, fpTrioTinyAll},
		{"named workloads and config", `{"workloads":["sha","qsort"],"configs":["medium"],"scale":"tiny"}`, fpShaQsortMedium},
		{"default scale", `{"scale":"default"}`, fpTrioDefaultAll},
	} {
		if got := requestID(t, tc.body); got != tc.want {
			t.Errorf("%s: fingerprint %s, want pinned %s", tc.name, got, tc.want)
		}
	}
}

func TestResolveRequestParametric(t *testing.T) {
	var req SweepRequest
	body := `{"workloads":["sha"],"base":"medium",
		"config_overrides":{"l2-kib":1024},
		"axes":{"rob":[64,"96"],"predictor":["tage","gshare"]},"scale":"tiny"}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	camp, err := resolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Configs) != 4 {
		t.Fatalf("expanded %d design points, want 4", len(camp.Configs))
	}
	// Expansion is deterministic despite the map-typed request fields:
	// parameters sort by name, values keep request order.
	want := []string{
		"MediumBOOM+l2-kib=1024+predictor=tage+rob=64",
		"MediumBOOM+l2-kib=1024+predictor=tage+rob=96",
		"MediumBOOM+l2-kib=1024+predictor=gshare+rob=64",
		"MediumBOOM+l2-kib=1024+predictor=gshare+rob=96",
	}
	if got := camp.ConfigNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("design points:\n got %q\nwant %q", got, want)
	}
	for _, c := range camp.Configs {
		if c.L2KiB != 1024 {
			t.Fatalf("%s: override not applied", c.Name)
		}
	}
}

func TestResolveRequestErrors(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"configs with axes", `{"configs":["medium"],"axes":{"rob":[64]}}`, "mutually exclusive"},
		{"configs with base", `{"configs":["medium"],"base":"mega"}`, "mutually exclusive"},
		{"unknown parameter", `{"axes":{"l3-kib":[1]}}`, "unknown parameter"},
		{"invalid corner", `{"axes":{"rob":[2]}}`, "MediumBOOM+rob=2"},
		{"unknown base", `{"base":"TinyBOOM"}`, "TinyBOOM"},
	} {
		var req SweepRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err := resolveRequest(req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestAxisValueJSON(t *testing.T) {
	var vs []AxisValue
	if err := json.Unmarshal([]byte(`[64, "96", 1.5]`), &vs); err != nil {
		t.Fatal(err)
	}
	if want := []AxisValue{"64", "96", "1.5"}; !reflect.DeepEqual(vs, want) {
		t.Fatalf("decoded %q, want %q", vs, want)
	}
	if err := json.Unmarshal([]byte(`[true]`), &vs); err == nil {
		t.Error("bool axis value accepted")
	}
	b, err := json.Marshal(AxisValue("64"))
	if err != nil || string(b) != `"64"` {
		t.Errorf("marshal = %s, %v; want \"64\"", b, err)
	}
}

// TestParametricScaleMatchesNamedTrio: a v2 body that parametrically
// reconstructs a registry config is a different campaign (different
// config names) — the fingerprint must differ from the named-trio one, so
// the two jobs can never collapse onto each other.
func TestParametricScaleMatchesNamedTrio(t *testing.T) {
	id := requestID(t, `{"workloads":["sha","qsort"],"base":"medium","axes":{"rob":[64]},"scale":"tiny"}`)
	if id == fpShaQsortMedium {
		t.Fatal("parametric campaign collided with the named-config fingerprint")
	}
}

func TestCampaignValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		camp core.Campaign
		want string
	}{
		{"no workloads", core.NewCampaign(nil, boom.Configs(), workloads.ScaleTiny), "workload"},
		{"unknown workload", core.NewCampaign([]string{"linpack"}, boom.Configs(), workloads.ScaleTiny), "linpack"},
		{"duplicate config", core.NewCampaign([]string{"sha"},
			[]boom.Config{boom.MediumBOOM(), boom.MediumBOOM()}, workloads.ScaleTiny), "duplicate"},
	}
	for _, tc := range cases {
		if err := tc.camp.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
