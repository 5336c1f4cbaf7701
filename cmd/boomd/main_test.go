package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// announce is boomd's stdout in a test: it hands the first line — the one
// scripts scrape for the bound address — to whoever booted the process.
type announce struct {
	buf   bytes.Buffer
	first chan<- string // buffered; nil once the line is sent
}

func (a *announce) Write(p []byte) (int, error) {
	a.buf.Write(p)
	if a.first != nil {
		if line, _, ok := strings.Cut(a.buf.String(), "\n"); ok {
			a.first <- line
			a.first = nil
		}
	}
	return len(p), nil
}

// boot runs boomd in-process with args and returns its announcement line
// and a stop func that delivers the "signal" (cancels run's context),
// waits for the drain and fails the test unless run exited cleanly.
func boot(t *testing.T, args ...string) (line string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &announce{first: first}, io.Discard) }()
	stopped := false
	stop = func() {
		t.Helper()
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("boomd %v: drain returned %v, want a clean exit", args, err)
			}
		case <-time.After(time.Minute):
			t.Errorf("boomd %v: still draining a minute after the signal", args)
		}
	}
	t.Cleanup(stop)
	select {
	case line = <-first:
	case err := <-done:
		stopped = true
		cancel()
		t.Fatalf("boomd %v exited before announcing itself: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("boomd %v never announced itself", args)
	}
	return line, stop
}

// daemon boots a serving boomd on an ephemeral port and returns a client
// for it.
func daemon(t *testing.T, args ...string) (c *serve.Client, stop func()) {
	t.Helper()
	line, stop := boot(t, append([]string{"-addr", "127.0.0.1:0", "-q"}, args...)...)
	addr, ok := strings.CutPrefix(line, "boomd: listening on ")
	if !ok {
		t.Fatalf("boomd announced %q, want its listen address", line)
	}
	return serve.NewClient(addr), stop
}

// campaign submits req and long-polls its canonical result bytes.
func campaign(t *testing.T, c *serve.Client, req serve.SweepRequest) []byte {
	t.Helper()
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Result(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func metricsText(t *testing.T, c *serve.Client) string {
	t.Helper()
	var b []byte
	if _, err := c.Do(context.Background(), http.MethodGet, "/metrics", nil, &b); err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wantSeries asserts the exposition has each "name value" line verbatim.
func wantSeries(t *testing.T, text string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(l) + `$`).MatchString(text) {
			t.Errorf("/metrics lacks %q", l)
		}
	}
}

func tinyRequest(workloads ...string) serve.SweepRequest {
	return serve.SweepRequest{Workloads: workloads, Configs: []string{"medium"}, Scale: "tiny"}
}

// TestRetiredFlagsUndefined: -workers is gone, not ignored — the daemon
// runs one sweep at a time, and a script that still asks for more fails at
// parse time instead of getting one anyway.
func TestRetiredFlagsUndefined(t *testing.T) {
	err := run(context.Background(), []string{"-workers", "2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("boomd -workers 2: %v, want \"flag provided but not defined\"", err)
	}
}

// TestServeRoundTrip: boot on an ephemeral port, run a tiny campaign
// (submit → long-poll result), scrape /metrics, then signal and require a
// clean drain.
func TestServeRoundTrip(t *testing.T) {
	c, stop := daemon(t, "-cache", t.TempDir())
	var res serve.SweepResult
	if err := json.Unmarshal(campaign(t, c, tinyRequest("sha")), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Workload != "sha" || res.Rows[0].IPC <= 0 {
		t.Errorf("unexpected result rows: %+v", res.Rows)
	}
	wantSeries(t, metricsText(t, c), "serve_sweeps_done 1")
	stop()
}

// TestParametricColdWarm: a 2-axis parametric campaign (4 design points)
// pays one bbv/select/checkpoint chain for its workload next to 4
// detailed measurements cold; a restarted daemon over the same cache
// serves the rerun from 4 measurement hits, byte-identically (and with it
// the frontier cmd/dse derives from those bytes).
func TestParametricColdWarm(t *testing.T) {
	axes, err := dse.ParseAxes("rob=48,64;predictor=tage,gshare")
	if err != nil {
		t.Fatal(err)
	}
	req := serve.RequestFromSpec(dse.Spec{Base: "medium", Axes: axes})
	req.Workloads, req.Scale = []string{"sha"}, "tiny"
	cache := t.TempDir()

	c, stop := daemon(t, "-cache", cache)
	cold := campaign(t, c, req)
	wantSeries(t, metricsText(t, c),
		"artifact_bbv_miss 1", "artifact_select_miss 1",
		"artifact_checkpoint_miss 1", "artifact_measure_miss 4")
	stop()

	c, _ = daemon(t, "-cache", cache)
	warm := campaign(t, c, req)
	text := metricsText(t, c)
	wantSeries(t, text, "artifact_measure_hit 4")
	if regexp.MustCompile(`(?m)^artifact_measure_miss [1-9]`).MatchString(text) {
		t.Error("warm rerun recomputed a measurement")
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm result differs from cold:\ncold %s\nwarm %s", cold, warm)
	}
}

// TestFabricMatchesSolo: a coordinator boomd and a -worker boomd run a
// campaign through the fabric — worker registered, every cell leased and
// reported, no local fallback — and a standalone boomd reproduces the
// result body byte for byte.
func TestFabricMatchesSolo(t *testing.T) {
	c, stopCoord := daemon(t, "-cache", t.TempDir())
	line, stopWorker := boot(t, "-worker", "-coordinator", c.Base,
		"-worker-id", "smoke-w1", "-cache", t.TempDir())
	if want := "boomd: worker smoke-w1 polling " + c.Base; line != want {
		t.Fatalf("worker announced %q, want %q", line, want)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(metricsText(t, c), "\nfabric_workers 1\n") {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req := tinyRequest("sha", "qsort")
	viaFabric := campaign(t, c, req)
	var status []byte
	if _, err := c.Do(context.Background(), http.MethodGet, "/v1/fabric/status", nil, &status); err != nil || !bytes.Contains(status, []byte("smoke-w1")) {
		t.Errorf("fabric status %s (err %v) does not list the worker", status, err)
	}
	text := metricsText(t, c)
	wantSeries(t, text, "fabric_cells_done 4")
	if regexp.MustCompile(`(?m)^fabric_local_fallback [1-9]`).MatchString(text) {
		t.Error("campaign fell back to the coordinator's local runner")
	}
	stopWorker()
	stopCoord()

	solo, _ := daemon(t)
	if alone := campaign(t, solo, req); !bytes.Equal(viaFabric, alone) {
		t.Errorf("fabric result differs from solo:\nfabric %s\nsolo   %s", viaFabric, alone)
	}
}

// TestRemoteStoreHonoursTimeouts: boomd -remote-store builds its store
// client from -remote-timeout like every other binary. Against a store
// that accepts and then hangs, each remote operation is cut off at the
// configured response-header timeout, so the job is terminal within
// seconds — served from local recompute or failed on the write-through,
// either way not parked for the 60 s per attempt a default client waits.
func TestRemoteStoreHonoursTimeouts(t *testing.T) {
	release := make(chan struct{})
	var asked atomic.Int64
	store := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		asked.Add(1)
		<-release
	}))
	defer store.Close()
	defer close(release)

	c, _ := daemon(t, "-cache", t.TempDir(), "-remote-store", store.URL, "-remote-timeout", "100ms")
	st, err := c.Submit(tinyRequest("sha"))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = c.Result(st.ID, true)
	if took := time.Since(t0); took > 20*time.Second {
		t.Errorf("job took %s against a hung store (result error: %v): -remote-timeout was not applied", took, err)
	}
	if asked.Load() == 0 {
		t.Error("the remote store was never asked: -remote-store is not wired")
	}
}
