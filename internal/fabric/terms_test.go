package fabric_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// oneAddress serves the coordinator started last at one fixed address, so
// the workers pointed at it see a coordinator restart.
type oneAddress struct {
	url string
	cur atomic.Value // http.Handler
}

func newOneAddress(t *testing.T) *oneAddress {
	a := &oneAddress{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	a.url = ts.URL
	return a
}

// serve puts c at the address in place of the coordinator there, which
// nobody reaches again.
func (a *oneAddress) serve(c *fabric.Coordinator) { a.cur.Store(c.Handler()) }

// newCoordinator builds a coordinator under cfg and returns it with its
// registry.
func newCoordinator(t *testing.T, cfg fabric.Config) (*fabric.Coordinator, *metrics.Registry) {
	cfg.Registry = metrics.NewRegistry()
	cfg.Poll = 10 * time.Millisecond
	cfg.Log = t.Logf
	return fabric.NewCoordinator(cfg), cfg.Registry
}

// runWorkers runs one worker per config against the address until the test
// ends, and returns their registries.
func (a *oneAddress) runWorkers(t *testing.T, cfgs ...fabric.WorkerConfig) []*metrics.Registry {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() { cancel(); wg.Wait() })
	var regs []*metrics.Registry
	for _, cfg := range cfgs {
		cfg.Coordinator, cfg.CacheDir, cfg.Log = a.url, t.TempDir(), t.Logf
		cfg.Registry = metrics.NewRegistry()
		regs = append(regs, cfg.Registry)
		w, err := fabric.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	return regs
}

// waitFor polls cond for up to 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWorkerFollowsARestartedCoordinator: a worker takes coordinator A's
// terms, A serving a store, and opens its session under them. A stops on
// its second grant, and B — knowing nothing, serving no store — starts at
// the same address. That cell runs under A's terms and fails pushing to a
// store that is gone; every cell B grants runs under B's, each writing
// something the worker's cache does not hold yet: the worker reopens its
// session without the store, and B's campaign of the same ID gives the
// direct run's bytes.
func TestWorkerFollowsARestartedCoordinator(t *testing.T) {
	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	const id = "follows-a-restart"
	want := directBytes(t, id, camp)

	addr := newOneAddress(t)
	a, _ := newCoordinator(t, fabric.Config{Store: artifact.Open(t.TempDir())})
	b, _ := newCoordinator(t, fabric.Config{})
	addr.serve(a)
	var grants atomic.Int64
	reg := addr.runWorkers(t, fabric.WorkerConfig{ID: "survivor", TaskHook: func(fabric.Task) {
		if grants.Add(1) == 2 {
			addr.serve(b)
		}
	}})[0]

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	actx, acancel := context.WithCancel(ctx)
	aDone := make(chan struct{})
	go func() { defer close(aDone); a.RunCampaign(actx, id, camp, nil) }()
	waitFor(t, "the cell A granted to fail", func() bool { return reg.Counter("fabric.cells_errored").Value() == 1 })
	acancel()
	<-aDone

	sw, err := b.RunCampaign(ctx, id, camp, nil)
	if err != nil {
		t.Fatalf("campaign on the restarted coordinator: %v", err)
	}
	if got := encodeSweep(t, id, camp, sw); !bytes.Equal(got, want) {
		t.Errorf("bytes after the restart differ from the direct run's:\n got %s\nwant %s", got, want)
	}
	if n := reg.Counter("fabric.cells_errored").Value(); n != 1 {
		t.Errorf("cells_errored %d, want 1: a cell B granted ran under A's terms", n)
	}
}

// TestWorkerHeartbeatsOnTheNewLease: two workers join A, whose lease is
// 30 s, and B starts at the same address with a 600 ms lease. Each measure
// takes 1.5 s, so a worker still heartbeating on A's lease — every 10 s —
// would have each measure cell stolen from it; on B's — every 200 ms —
// none is.
func TestWorkerHeartbeatsOnTheNewLease(t *testing.T) {
	camp := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM", "MegaBOOM"), workloads.ScaleTiny)
	const id = "heartbeats-on-the-new-lease"
	want := directBytes(t, id, camp)

	addr := newOneAddress(t)
	a, _ := newCoordinator(t, fabric.Config{Lease: 30 * time.Second})
	addr.serve(a)
	slow := core.Engine{Chaos: "1:core.measure=delay:1500ms"}
	addr.runWorkers(t, fabric.WorkerConfig{ID: "w0", Engine: slow}, fabric.WorkerConfig{ID: "w1", Engine: slow})
	waitFor(t, "both workers to join A", func() bool { return a.LiveWorkers() == 2 })

	b, bReg := newCoordinator(t, fabric.Config{Lease: 600 * time.Millisecond})
	addr.serve(b)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sw, err := b.RunCampaign(ctx, id, camp, nil)
	if err != nil {
		t.Fatalf("campaign on the restarted coordinator: %v", err)
	}
	if got := encodeSweep(t, id, camp, sw); !bytes.Equal(got, want) {
		t.Errorf("bytes after the restart differ from the direct run's:\n got %s\nwant %s", got, want)
	}
	if n := bReg.Counter("fabric.cells_stolen").Value(); n != 0 {
		t.Errorf("cells_stolen %d, want 0: a live worker heartbeat on the old lease", n)
	}
}
