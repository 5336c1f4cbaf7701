package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// fpShaQsortMediumMAV pins the fingerprint of the sha/qsort/medium
// campaign under {features: bbv+mav, warmup: 5x, interval: 20000}. Like
// the zero-spec constants in request_test.go, this hex is load-bearing: a
// drift means journals written today would stop resuming. Restore the
// encoding; the constant moves only with a deliberate sweep-schema bump.
const fpShaQsortMediumMAV = "a7a28f6d37e1aba5a5cdc1b1c7d818ae81a603dfc993f60a9275f5de8af8d5b1"

// samplingWireGolden is the canonical v2 body with a sampling block, byte
// for byte as boomctl emits it (struct field order, no spaces).
const samplingWireGolden = `{"workloads":["sha","qsort"],"configs":["medium"],"scale":"tiny",` +
	`"sampling":{"interval":20000,"features":"bbv+mav","warmup":"5x"}}`

// TestSamplingWireGolden pins the v2 sampling request block in both
// directions: the decoded body resolves to the expected spec and the
// pinned fingerprint, and re-encoding the request reproduces the golden
// bytes exactly (so client and server can never drift on field names).
func TestSamplingWireGolden(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(samplingWireGolden), &req); err != nil {
		t.Fatal(err)
	}
	camp, err := resolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	want := sampling.Spec{
		Interval:     20_000,
		Features:     sampling.FeaturesBBVMAV,
		WarmupPolicy: sampling.WarmupProportional,
		WarmupFactor: 5,
	}
	if camp.Sampling != want {
		t.Fatalf("resolved spec %+v, want %+v", camp.Sampling, want)
	}

	if got := requestID(t, samplingWireGolden); got != fpShaQsortMediumMAV {
		t.Fatalf("spec-bearing fingerprint drifted: got %s, want pinned %s", got, fpShaQsortMediumMAV)
	}

	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != samplingWireGolden {
		t.Fatalf("re-encoded request drifted from golden wire bytes:\n got %s\nwant %s", b, samplingWireGolden)
	}
}

// TestEmptySamplingBlockIsZeroSpec: an explicit empty block resolves to
// the zero spec, which must be indistinguishable from no block at all.
func TestEmptySamplingBlockIsZeroSpec(t *testing.T) {
	got := requestID(t, `{"workloads":["sha","qsort"],"configs":["medium"],"scale":"tiny","sampling":{}}`)
	if got != fpShaQsortMedium {
		t.Fatalf("empty sampling block drifted the fingerprint: got %s, want %s", got, fpShaQsortMedium)
	}
	if fpShaQsortMediumMAV == fpShaQsortMedium {
		t.Fatal("spec-bearing fingerprint collides with the zero-spec one")
	}
}

// TestSamplingRoundTripThroughServer: a spec-bearing campaign submitted
// over HTTP must produce result bytes identical to a direct Runner.Sweep
// of the same campaign — the sampling spec changes what is computed, not
// the serving layer's byte-identity contract. The status body surfaces
// the spec; the result body carries the "sampling" field.
func TestSamplingRoundTripThroughServer(t *testing.T) {
	spec := sampling.Spec{
		Features:     sampling.FeaturesBBVMAV,
		WarmupPolicy: sampling.WarmupProportional,
		WarmupFactor: 5,
	}
	camp := core.NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	camp.Sampling = spec
	r := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))
	wantID := r.CampaignID(camp)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSweep(wantID, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"sampling":"features=bbv+mav warmup=5x"`)) {
		t.Fatalf("canonical encoding is missing the sampling field: %s", want)
	}

	_, ts := newTestServer(t, Config{})
	body := `{"workloads":["sha"],"configs":["medium"],"scale":"tiny",` +
		`"sampling":{"features":"bbv+mav","warmup":"5x"}}`
	resp, b := postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != wantID {
		t.Fatalf("served fingerprint %s, want %s", st.ID, wantID)
	}
	if st.Sampling != spec.String() {
		t.Fatalf("status sampling %q, want %q", st.Sampling, spec.String())
	}
	resp, got := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served bytes differ from direct sweep:\n got %s\nwant %s", got, want)
	}
}

func TestSamplingRequestErrors(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"unknown features", `{"sampling":{"features":"mav"}}`, "features"},
		{"malformed warmup", `{"sampling":{"warmup":"fast"}}`, "warmup"},
		{"negative interval", `{"sampling":{"interval":-1}}`, "interval"},
	} {
		var req SweepRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := resolveRequest(req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
