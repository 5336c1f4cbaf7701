package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// fabricWL is the wire path end to end: an in-process boomd (serve.Server
// with the fabric coordinator behind its Distribute hook, the coordinator
// also serving the remote artifact store) plus workers, all on one
// loopback listener, driven by a single HTTP client. Always ScaleTiny: the
// point is the wire, not the simulation.
type fabricWL struct {
	e *env

	workers int
	camp    core.Campaign
	body    []byte
	dirs    []string

	// reg is the coordinator's and server's registry, fresh per repetition.
	// It is attached with tracing off too: the server would make its own,
	// and the coordinator's few counters per cell are how a silent local
	// fallback is caught.
	reg        *metrics.Registry
	workerRegs []*metrics.Registry
	srv        *serve.Server
	ts         *httptest.Server
	client     *http.Client
	stop       context.CancelFunc
	wg         sync.WaitGroup

	// probe observes the wire in the traced pass (nil otherwise).
	probe *fabricProbe
}

func (w *fabricWL) name() string { return "fabric-loopback" }
func (w *fabricWL) why() string {
	return "the ScaleTiny 11x3 campaign POSTed to an in-process boomd that shards it over 2 loopback workers, then re-POSTed 30 times: serve, fabric, the remote artifact store and backoff do the distinguishing work"
}

// procs: two busy workers plus the daemon's and client's mostly idle
// goroutines; the host's CPUs are theirs to share.
func (w *fabricWL) procs() int { return w.e.nproc }

func (w *fabricWL) degenerate() string {
	if w.e.nproc < 2 {
		return "1-CPU host: one worker, no sharding"
	}
	return ""
}

func (w *fabricWL) setup(rep int, _ *metrics.Registry) error {
	w.workers = 2
	if w.e.nproc < 2 {
		w.workers = 1 // never more busy goroutines than CPUs
	}
	w.camp = sweepCampaign(w.e, rep, w.e.size.wire, workloads.ScaleTiny)
	if _, err := buildAll(w.camp.Workloads, workloads.ScaleTiny); err != nil {
		return err
	}
	var err error
	if w.body, err = json.Marshal(serve.SweepRequest{
		Workloads: w.camp.Workloads,
		Configs:   w.camp.ConfigNames(),
		Scale:     workloads.ScaleTiny.String(),
	}); err != nil {
		return err
	}

	storeDir, err := w.e.tempDir("fabric-store")
	if err != nil {
		return err
	}
	w.dirs = []string{storeDir}
	w.reg = metrics.NewRegistry()
	coord := fabric.NewCoordinator(fabric.Config{
		Store:      artifact.Open(storeDir),
		Registry:   w.reg,
		JournalDir: storeDir,
		// The daemon default (250 ms) would add up to a quarter second of
		// random phase to a ~3 s campaign; the cluster conformance suite's
		// 10 ms keeps the measurement about the wire.
		Poll: 10 * time.Millisecond,
	})
	distribute := coord.RunCampaign
	if w.probe != nil {
		distribute = w.probe.wrapDistribute(distribute)
	}
	if w.srv, err = serve.New(serve.Config{
		CacheDir:    storeDir,
		Parallelism: 1,
		Registry:    w.reg,
		Distribute:  distribute,
	}); err != nil {
		return err
	}
	mux := http.NewServeMux()
	var fabricHandler http.Handler = coord.Handler()
	if w.probe != nil {
		fabricHandler = w.probe.wrapHandler(fabricHandler)
	}
	mux.Handle("/v1/fabric/", fabricHandler)
	mux.Handle("/v1/artifacts/", coord.Handler())
	mux.Handle("/", w.srv.Handler())
	w.ts = httptest.NewServer(mux)
	w.client = &http.Client{}

	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	w.workerRegs = nil
	for i := 0; i < w.workers; i++ {
		dir, err := w.e.tempDir("fabric-worker")
		if err != nil {
			return err
		}
		w.dirs = append(w.dirs, dir)
		var reg *metrics.Registry // engine instrumentation stays off unless tracing
		if w.probe != nil {
			reg = metrics.NewRegistry()
			w.workerRegs = append(w.workerRegs, reg)
		}
		fw, err := fabric.NewWorker(fabric.WorkerConfig{
			Coordinator: w.ts.URL,
			ID:          fmt.Sprintf("worker-%d", i),
			CacheDir:    dir,
			Registry:    reg,
			Parallelism: 1,
		})
		if err != nil {
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			_ = fw.Run(ctx) // returns ctx.Err() on teardown, nothing else
		}()
	}
	// A campaign submitted before the workers registered would run on the
	// daemon's local fallback and never touch the fabric.
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() < w.workers {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", coord.LiveWorkers(), w.workers)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// submit POSTs the campaign and reads its result, long-polling until the
// job is terminal. It returns the result body and the POST's own latency.
func (w *fabricWL) submit(out *outcome) (body []byte, post time.Duration, err error) {
	t0 := time.Now()
	resp, err := w.client.Post(w.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(w.body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	post = time.Since(t0)
	if err != nil {
		return nil, post, err
	}
	out.ops++
	if resp.StatusCode/100 != 2 {
		out.fail("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(b))
		return nil, post, nil
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, post, fmt.Errorf("decoding submit response: %w", err)
	}
	for {
		resp, err := w.client.Get(w.ts.URL + "/v1/sweeps/" + st.ID + "/result?wait=1")
		if err != nil {
			return nil, post, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, post, err
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			continue // not terminal yet; wait=1 already blocked, ask again
		case resp.StatusCode != http.StatusOK:
			out.fail("GET result: %s: %s", resp.Status, bytes.TrimSpace(b))
			return nil, post, nil
		}
		return b, post, nil
	}
}

func (w *fabricWL) run(tm *timer) (*outcome, error) {
	out := &outcome{}
	tm.begin()
	start := time.Now()
	first, post, err := w.submit(out)
	tm.end()
	if err != nil {
		return nil, err
	}
	if w.probe != nil {
		w.probe.postStart = start
		w.probe.submitMS = float64(post.Nanoseconds()) / 1e6
		w.probe.resultBytes = len(first)
	}
	if first == nil {
		return out, nil
	}

	lat := make([]float64, 0, w.e.size.resubmits)
	for i := 0; i < w.e.size.resubmits; i++ {
		t0 := time.Now()
		again, _, err := w.submit(out)
		if err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if again != nil && !bytes.Equal(again, first) {
			out.fail("resubmit %d: result bytes differ from the first submission's", i)
		}
	}
	out.samples = map[string][]float64{"resubmit_ms_p50": lat}

	var res serve.SweepResult
	if err := json.Unmarshal(first, &res); err != nil {
		return nil, fmt.Errorf("decoding sweep result: %w", err)
	}
	cells := len(res.Workloads) * len(res.Configs)
	out.ops += cells
	for _, f := range res.Failed {
		out.fail("cell %s: failed", f)
	}
	if got := len(res.Rows) + len(res.Failed); got != cells {
		out.fail("result holds %d of %d cells", got, cells)
	}
	for _, row := range res.Rows {
		out.insts += row.DetailedInsts
	}
	out.speedup = res.SpeedupX
	d, err := wireSweepDigest(first)
	if err != nil {
		return nil, err
	}
	w.e.golden.check(out, sweepKey(w.camp), d)
	if n := w.reg.Counter("fabric.local_fallback").Value(); n != 0 {
		out.fail("campaign ran on the local fallback %d time(s), not the fabric", n)
	}
	return out, nil
}

func (w *fabricWL) teardown() {
	if w.stop != nil {
		w.stop()
		w.wg.Wait()
		w.stop = nil
	}
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	for _, d := range w.dirs {
		os.RemoveAll(d)
	}
	w.dirs = nil
}
