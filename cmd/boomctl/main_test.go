package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// drainRetries is how many 503 + Retry-After answers a read rides out before
// it surfaces the typed error: readPolicy's attempts after the first.
var drainRetries = int32(readPolicy.Attempts - 1)

// TestRetiredFlagsUndefined: -timeout is gone, not ignored — -wait waits as
// long as the sweep runs and each request is bounded by the client itself.
func TestRetiredFlagsUndefined(t *testing.T) {
	err := run([]string{"-timeout", "1m", "health"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("boomctl -timeout 1m: %v, want \"flag provided but not defined\"", err)
	}
}

// startServer stands up a serve.Server and returns its host:port.
func startServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestSubmitWait: the submit -wait round trip prints the result JSON.
func TestSubmitWait(t *testing.T) {
	addr := startServer(t, serve.Config{})
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "submit",
		"-workloads", "sha", "-configs", "medium", "-scale", "tiny", "-wait"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res serve.SweepResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output %q is not a SweepResult: %v", out.String(), err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Workload != "sha" || res.Rows[0].IPC <= 0 {
		t.Errorf("unexpected result rows: %+v", res.Rows)
	}

	// submit without -wait prints the job id; status and result then work.
	out.Reset()
	if err := run([]string{"-addr", addr, "submit", "-workloads", "sha",
		"-configs", "medium", "-scale", "tiny"}, &out); err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out.String())
	if id != res.ID {
		t.Errorf("resubmission id %q, want collapsed onto %q", id, res.ID)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "status", id}, &out); err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.Unmarshal(out.Bytes(), &st); err != nil || st.ID != id {
		t.Errorf("status output %q (err %v)", out.String(), err)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "result", id, "-wait"}, &out); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Errorf("result output is not JSON: %q", out.String())
	}
}

// TestSubmitParametricBodyGolden pins the exact request bytes the
// parametric flags produce: -base/-axes/-override must marshal into the
// documented v2 POST /v1/sweeps shape (axis values as canonical strings,
// map keys sorted by encoding/json), so any drift in the wire format —
// which boomd-side request fingerprinting depends on — fails here before
// it can strand a client.
func TestSubmitParametricBodyGolden(t *testing.T) {
	var gotBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var err error
		if gotBody, err = io.ReadAll(r.Body); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"job-golden","state":"queued"}`))
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "submit",
		"-workloads", "sha,qsort", "-base", "medium",
		"-axes", "rob=64,96;predictor=tage,gshare",
		"-override", "l2-kib=1024", "-scale", "tiny"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"workloads":["sha","qsort"],"scale":"tiny","base":"medium",` +
		`"config_overrides":{"l2-kib":"1024"},` +
		`"axes":{"predictor":["tage","gshare"],"rob":["64","96"]}}`
	if string(gotBody) != want {
		t.Errorf("parametric request body drifted:\n got %s\nwant %s", gotBody, want)
	}
	if got := strings.TrimSpace(out.String()); got != "job-golden" {
		t.Errorf("submit printed %q, want the job id", got)
	}

	// The same flags must round-trip through a real server into a valid
	// expansion: 2x2 points around the pinned L2.
	addr := startServer(t, serve.Config{})
	out.Reset()
	if err := run([]string{"-addr", addr, "submit", "-workloads", "sha",
		"-base", "medium", "-axes", "rob=64,96;predictor=tage,gshare",
		"-override", "l2-kib=1024", "-scale", "tiny", "-wait"}, &out); err != nil {
		t.Fatal(err)
	}
	var res serve.SweepResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output %q is not a SweepResult: %v", out.String(), err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("expected 4 rows (2x2 axes, 1 workload), got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !strings.Contains(row.Config, "l2-kib=1024") {
			t.Errorf("design point %q lost the override", row.Config)
		}
	}
}

// TestClientErrors: server-side rejections surface as errors carrying the
// server's message, and usage mistakes never hit the network.
func TestClientErrors(t *testing.T) {
	addr := startServer(t, serve.Config{})
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "submit", "-workloads", "linpack"}, &out)
	if err == nil || !strings.Contains(err.Error(), "linpack") {
		t.Errorf("unknown workload error %v must carry the server message", err)
	}
	if err := run([]string{"-addr", addr, "status", "nope"}, &out); err == nil {
		t.Error("status of unknown id must fail")
	}
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"-addr"},
		{"submit", "-bogus"},
		{"status", "id", "extra"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %q must fail usage", args)
		}
	}
}

// TestStatusFabric: bare `boomctl status` reads the coordinator's fabric
// status endpoint.
func TestStatusFabric(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fabric/status" {
			t.Errorf("bare status hit %s, want /v1/fabric/status", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"draining":false,"workers":[],"campaigns":[]}`))
	}))
	defer ts.Close()
	var out bytes.Buffer
	if err := run([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "status"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"draining":false`) {
		t.Errorf("status output %q", out.String())
	}
}

// TestStatusDraining: a node that never stops draining is retried the
// bounded number of times (honoring its Retry-After hint) and then
// surfaces as a typed error carrying both the server's message and the
// hint — the regressions this pins are bare-TCP-error-looking output for
// a node that is merely shutting down, and unbounded retry loops.
func TestStatusDraining(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.Header().Set("Retry-After", "0") // "ask again immediately", forever
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"coordinator is draining; retry later"}`))
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "status"}, &out)
	if err == nil {
		t.Fatal("draining status must fail")
	}
	for _, want := range []string{"503", "draining", "retry after 0s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("draining error %q missing %q", err, want)
		}
	}
	if got := atomic.LoadInt32(&calls); got != drainRetries+1 {
		t.Errorf("client made %d requests, want %d (initial + %d capped retries)",
			got, drainRetries+1, drainRetries)
	}
}

// TestStatusDrainRecovery: against a coordinator that finishes draining
// after a couple of rejections, boomctl's Retry-After backoff rides the
// drain out and the read succeeds with no error surfaced at all.
func TestStatusDrainRecovery(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"coordinator is draining; retry later"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"draining":false,"workers":[{"id":"w1","live":true,"cells_done":3,"last_seen_ms":10,"quarantined":true}],"campaigns":[]}`))
	}))
	defer ts.Close()
	var out bytes.Buffer
	if err := run([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "status"}, &out); err != nil {
		t.Fatalf("status through a finishing drain: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Errorf("client made %d requests, want 3 (two rejections, one success)", got)
	}
	// The quarantine flag travels through to the operator unmangled.
	if !strings.Contains(out.String(), `"quarantined":true`) {
		t.Errorf("status output %q lost the quarantined marker", out.String())
	}
}

// TestMetricsAndHealth: the introspection subcommands print the raw
// endpoint bodies.
func TestMetricsAndHealth(t *testing.T) {
	addr := startServer(t, serve.Config{})
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "health"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "ok") || !strings.Contains(s, "ready") {
		t.Errorf("health output %q", s)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "serve_http_requests") {
		t.Errorf("metrics output missing serving series:\n%s", out.String())
	}
}
