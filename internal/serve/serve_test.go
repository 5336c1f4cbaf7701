package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/workloads"
)

// newTestServer builds a Server plus an httptest front end and registers
// cleanup. Tests that drain explicitly pass their own teardown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// directSweepBytes runs the same campaign straight through core.Runner and
// encodes it with the serving encoder — the byte-identity reference.
func directSweepBytes(t *testing.T, names []string, cfgs []boom.Config, scale workloads.Scale) (string, []byte) {
	t.Helper()
	r := core.New(core.FlowConfigFor(scale), core.WithScale(scale))
	camp := core.NewCampaign(names, cfgs, scale)
	id := r.CampaignID(camp)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSweep(id, scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	return id, b
}

// TestSingleFlightLoad is the acceptance load test: 32 concurrent
// submissions of one campaign must trigger exactly one underlying sweep,
// and every response body must be byte-identical to a direct Runner.Sweep
// of the same campaign.
func TestSingleFlightLoad(t *testing.T) {
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	wantID, want := directSweepBytes(t, names, cfgs, workloads.ScaleTiny)

	s, ts := newTestServer(t, Config{})
	const clients = 32
	body := `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`

	var wg sync.WaitGroup
	statuses := make([]int, clients)
	ids := make([]string, clients)
	results := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i] = resp.StatusCode
			var st Status
			if err := json.Unmarshal(b, &st); err != nil {
				errs[i] = fmt.Errorf("submit response %q: %w", b, err)
				return
			}
			ids[i] = st.ID
			rr, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/result?wait=1")
			if err != nil {
				errs[i] = err
				return
			}
			rb, err := io.ReadAll(rr.Body)
			rr.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if rr.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("result status %d: %s", rr.StatusCode, rb)
				return
			}
			results[i] = rb
		}(i)
	}
	wg.Wait()

	var accepted, collapsed int
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		switch statuses[i] {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			collapsed++
		default:
			t.Errorf("client %d: submit status %d", i, statuses[i])
		}
		if ids[i] != wantID {
			t.Errorf("client %d: job id %q, want campaign fingerprint %q", i, ids[i], wantID)
		}
		if !bytes.Equal(results[i], want) {
			t.Errorf("client %d: result differs from direct Runner.Sweep:\ngot  %s\nwant %s",
				i, results[i], want)
		}
	}
	if accepted != 1 || collapsed != clients-1 {
		t.Errorf("accepted=%d collapsed=%d, want 1 and %d", accepted, collapsed, clients-1)
	}
	reg := s.Metrics()
	if got := reg.Counter("serve.sweeps_started").Value(); got != 1 {
		t.Errorf("serve.sweeps_started = %d, want exactly 1 (single flight)", got)
	}
	if got := reg.Counter("serve.jobs_collapsed").Value(); got != int64(clients-1) {
		t.Errorf("serve.jobs_collapsed = %d, want %d", got, clients-1)
	}
	// Exactly one engine run: 1 profile + 1 measure task.
	if got := reg.Counter("core.sweep.tasks").Value(); got != 2 {
		t.Errorf("core.sweep.tasks = %d, want 2 (one underlying sweep)", got)
	}
}

// TestGracefulDrainResume is the acceptance drain test: SIGTERM
// (Shutdown) during a sweep cancels it with completed tasks in the cache;
// a fresh server over the same cache dir completes the resubmitted
// campaign without recomputing them.
func TestGracefulDrainResume(t *testing.T) {
	dir := t.TempDir()
	names := []string{"sha", "qsort"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	body := `{"workloads":["sha","qsort"],"configs":["medium"],"scale":"tiny"}`
	_, want := directSweepBytes(t, names, cfgs, workloads.ScaleTiny)

	// Phase 1: a server whose sweep blocks after 2 completed tasks (both
	// profiles, their artifacts stored), standing in for a long campaign.
	release := make(chan struct{})
	hookHit := make(chan struct{})
	var once sync.Once
	srvA, err := New(Config{
		CacheDir:    dir,
		Parallelism: 1,
		TaskHook: func(completed int) {
			if completed == 2 {
				once.Do(func() { close(hookHit) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	resp, b := postCampaign(t, tsA, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	<-hookHit // two tasks finished, worker parked mid-sweep

	// SIGTERM path: drain with a grace the parked sweep cannot meet.
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srvA.Shutdown(dctx) }()
	<-srvA.baseCtx.Done() // grace expired, sweeps canceled
	close(release)
	if err := <-errc; err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if rr, rb := get(t, tsA.URL+"/v1/sweeps/"+st.ID+"/result"); rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("canceled sweep served %d %s, want 500", rr.StatusCode, rb)
	}
	if rr, _ := get(t, tsA.URL+"/readyz"); rr.StatusCode != http.StatusServiceUnavailable {
		t.Error("draining server must fail readiness")
	}
	if rr, _ := postCampaign(t, tsA, body); rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server admitted a submission (%d)", rr.StatusCode)
	}

	// Phase 2: restart over the same cache dir; the resubmitted campaign
	// resumes from it.
	srvB, tsB := newTestServer(t, Config{Engine: core.Engine{CacheDir: dir, Parallelism: 1}})
	resp, b = postCampaign(t, tsB, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, b)
	}
	rr, rb := get(t, tsB.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("resumed sweep: %d %s", rr.StatusCode, rb)
	}
	if !bytes.Equal(rb, want) {
		t.Errorf("resumed result differs from direct run:\ngot  %s\nwant %s", rb, want)
	}
	for _, stage := range []string{"bbv", "select", "checkpoint"} {
		hit := srvB.Metrics().Counter("artifact." + stage + ".hit").Value()
		miss := srvB.Metrics().Counter("artifact." + stage + ".miss").Value()
		if hit != 2 || miss != 0 {
			t.Errorf("artifact.%s: %d hits, %d misses, want 2 and 0 (both profiles finished before the drain)", stage, hit, miss)
		}
	}
	if got := srvB.Metrics().Counter("artifact.measure.miss").Value(); got != 2 {
		t.Errorf("artifact.measure.miss = %d, want 2 (the measurements the drain canceled)", got)
	}
}

// TestChaosDrillOverHTTP: a daemon armed with a transient chaos fault and
// a retry budget must absorb the fault and still serve bytes identical to
// a fault-free direct run.
func TestChaosDrillOverHTTP(t *testing.T) {
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	_, want := directSweepBytes(t, names, cfgs, workloads.ScaleTiny)

	s, ts := newTestServer(t, Config{Engine: core.Engine{
		Chaos:   "1:core.measure/sha/MediumBOOM=error",
		Retries: 2,
	}})
	resp, b := postCampaign(t, ts, `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("chaos sweep: %d %s", rr.StatusCode, rb)
	}
	if !bytes.Equal(rb, want) {
		t.Errorf("retried result not bit-identical to fault-free run:\ngot  %s\nwant %s", rb, want)
	}
	if got := s.Metrics().Counter("core.sweep.retries").Value(); got == 0 {
		t.Error("injected transient fault consumed no retry — chaos not armed?")
	}
}

// TestBackpressure: with a one-deep queue and the only worker parked, a
// third campaign must be rejected with 429 and a Retry-After hint.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Config{
		QueueDepth: 1,
		TaskHook: func(completed int) {
			once.Do(func() { close(started) })
			<-block
		},
	})
	defer close(block)

	submit := func(wl string) (*http.Response, []byte) {
		return postCampaign(t, ts,
			`{"workloads":["`+wl+`"],"configs":["medium"],"scale":"tiny"}`)
	}
	if resp, b := submit("sha"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, b)
	}
	<-started // worker is busy with sha, queue is empty
	if resp, b := submit("qsort"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, b)
	}
	resp, b := submit("bitcount")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	if got := s.Metrics().Counter("serve.jobs_rejected_full").Value(); got != 1 {
		t.Errorf("serve.jobs_rejected_full = %d, want 1", got)
	}
}

// TestValidation: malformed and unknown campaigns are 400s; unknown job
// IDs are 404s; the error payload is JSON.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed JSON", `{"workloads": [`},
		{"unknown field", `{"workload": ["sha"]}`},
		{"unknown workload", `{"workloads":["linpack"]}`},
		{"duplicate workload", `{"workloads":["sha","sha"]}`},
		{"unknown config", `{"configs":["GigaBOOM"]}`},
		{"duplicate config", `{"configs":["medium","MediumBOOM"]}`},
		{"unknown scale", `{"scale":"huge"}`},
		{"trailing bytes", `{"workloads":["sha"]} garbage`},
		{"second value", `{"workloads":["sha"]}{"workloads":["qsort"]}`},
	} {
		resp, b := postCampaign(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", tc.name, resp.StatusCode, b)
		}
		var je struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &je); err != nil || je.Error == "" {
			t.Errorf("%s: error payload %q is not {\"error\":...}", tc.name, b)
		}
	}
	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/result"} {
		if resp, b := get(t, ts.URL+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d %s, want 404", path, resp.StatusCode, b)
		}
	}
}

// TestHealthAndMetrics: liveness always passes, readiness flips on drain,
// and /metrics speaks Prometheus text with both serving and engine series.
func TestHealthAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, b := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, b)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz before drain: %d", resp.StatusCode)
	}

	resp, b := postCampaign(t, ts, `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1"); rr.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", rr.StatusCode, rb)
	}

	mr, mb := get(t, ts.URL+"/metrics")
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	for _, series := range []string{
		"# TYPE serve_sweeps_done counter",
		"serve_sweeps_done 1",
		"serve_http_requests",
		"core_sweep_tasks 2",
	} {
		if !strings.Contains(string(mb), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	s.BeginDrain()
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200 (still alive)", resp.StatusCode)
	}
}

// TestFailedJobResubmission: a failed campaign is not sticky — the next
// submission of the same fingerprint re-runs it instead of collapsing
// onto the failure.
func TestFailedJobResubmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: core.Engine{
		Chaos: "1:core.measure/sha/MediumBOOM=error-perm",
	}})
	body := `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`
	resp, b := postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
	if rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned sweep served %d %s, want 500", rr.StatusCode, rb)
	}
	// Fingerprinting ignores the injector, so the resubmission reuses the
	// id; it must be re-admitted as a fresh job (202), not collapsed onto
	// the failure (200). Each admission arms the chaos plan anew, so the
	// re-run fails the same way — what matters here is that it *ran*.
	resp, b = postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after failure: %d %s, want 202", resp.StatusCode, b)
	}
	if rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1"); rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("re-run sweep: %d %s, want the same injected failure", rr.StatusCode, rb)
	}
	if got := s.Metrics().Counter("serve.sweeps_started").Value(); got != 2 {
		t.Errorf("serve.sweeps_started = %d, want 2 (failure is retriable)", got)
	}
}

// TestConfigValidation: New must reject incoherent configs up front.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Engine: core.Engine{CacheVerify: true}}); err == nil {
		t.Error("CacheVerify without CacheDir must be rejected")
	}
	if _, err := New(Config{Engine: core.Engine{Chaos: "not-a-spec"}}); err == nil {
		t.Error("malformed chaos spec must be rejected at startup")
	}
	if _, err := New(Config{Engine: core.Engine{RemoteStore: "http://store:9000"}}); err == nil {
		t.Error("RemoteStore without CacheDir must be rejected")
	}
	// The shorthand CacheDir satisfies the Engine's cache-dependent knobs.
	s, err := New(Config{CacheDir: t.TempDir(), Engine: core.Engine{CacheVerify: true}})
	if err != nil {
		t.Fatalf("shorthand CacheDir must fold into the Engine before validation: %v", err)
	}
	s.Close()
}

// TestShorthandsEqualEngine: the fenced shorthands Config.CacheDir and
// Config.Parallelism and the same values spelled in Config.Engine are one
// configuration — same campaign identity, same served bytes.
func TestShorthandsEqualEngine(t *testing.T) {
	body := `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`
	run := func(cfg Config) (string, []byte) {
		t.Helper()
		_, ts := newTestServer(t, cfg)
		resp, b := postCampaign(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, b)
		}
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", rr.StatusCode, rb)
		}
		return st.ID, rb
	}
	idA, a := run(Config{CacheDir: t.TempDir(), Parallelism: 1})
	idB, b := run(Config{Engine: core.Engine{CacheDir: t.TempDir(), Parallelism: 1}})
	if idA != idB {
		t.Errorf("campaign id %s via shorthands, %s via Engine", idA, idB)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("result bytes differ:\nshorthand %s\nengine    %s", a, b)
	}
}

// TestDistributeHook: when Config.Distribute is set, every admitted job
// runs through it instead of the local runner, and the hook's sweep is
// what gets encoded and served. This is the seam boomd uses to hand
// campaigns to the fabric coordinator without serve importing it.
func TestDistributeHook(t *testing.T) {
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	_, want := directSweepBytes(t, names, cfgs, workloads.ScaleTiny)

	var calls int32
	var gotID string
	var gotCamp core.Campaign
	_, ts := newTestServer(t, Config{
		Distribute: func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error) {
			calls++
			gotID, gotCamp = id, camp
			if local == nil {
				t.Error("Distribute must receive the job's local runner for fallback")
			}
			return local.Sweep(ctx, camp)
		},
	})
	body := `{"workloads":["sha"],"configs":["medium"],"scale":"tiny"}`
	resp, b := postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	rr, rb := get(t, ts.URL+"/v1/sweeps/"+st.ID+"/result?wait=1")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", rr.StatusCode, rb)
	}
	if calls != 1 {
		t.Errorf("Distribute called %d times, want 1", calls)
	}
	if gotID != st.ID {
		t.Errorf("Distribute saw id %q, job id is %q", gotID, st.ID)
	}
	if len(gotCamp.Workloads) != 1 || gotCamp.Workloads[0] != "sha" {
		t.Errorf("Distribute saw campaign %+v", gotCamp)
	}
	if !bytes.Equal(rb, want) {
		t.Error("distributed job bytes differ from direct sweep")
	}

	// A Distribute failure fails the job like any sweep error.
	_, ts2 := newTestServer(t, Config{
		Distribute: func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error) {
			return nil, fmt.Errorf("fabric unreachable")
		},
	})
	resp, b = postCampaign(t, ts2, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if rr, rb := get(t, ts2.URL+"/v1/sweeps/"+st.ID+"/result?wait=1"); rr.StatusCode != http.StatusInternalServerError || !bytes.Contains(rb, []byte("fabric unreachable")) {
		t.Fatalf("failed distribution served %d %s, want 500 with the cause", rr.StatusCode, rb)
	}
}
