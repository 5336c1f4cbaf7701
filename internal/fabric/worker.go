package fabric

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// WorkerConfig carries one worker's knobs; only Coordinator is required.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("host:port" is promoted
	// to "http://host:port").
	Coordinator string
	// ID names the worker in leases, logs, and status ("worker-<pid>" when
	// empty). IDs must be unique per cluster.
	ID string
	// Engine says how the worker runs its cells (see core.Engine). Its
	// CacheDir is the local tier over the coordinator's store (a temp dir
	// when empty) and its RemoteStore is ignored: the store is the
	// coordinator's. A worker holds one cell at a time, so the Parallelism
	// budget drains into intra-cell point helpers (DESIGN §4) and the
	// sweep-level KeepGoing/Retries do nothing. Chaos arms one
	// injector per worker: pipeline and cache sites, the transport (scoped
	// to ID), and "fabric.payload/<id>", which corrupts the bytes this
	// worker reports — the lie coordinator-side auditing exists to catch.
	Engine core.Engine
	// CacheDir and Parallelism are shorthands for the Engine's fields of
	// the same name, folded in by NewWorker where those are zero.
	CacheDir    string
	Parallelism int
	// Registry collects the worker's pipeline + fabric metrics.
	Registry *metrics.Registry
	// Log receives one line per lifecycle event (nil = silent).
	Log func(format string, args ...interface{})
	// TaskHook, when set, observes each granted task before execution
	// (tests use it to kill a worker mid-campaign deterministically).
	TaskHook func(Task)
}

// Worker is the execution side of the fabric: it registers with a
// coordinator, polls for cells, runs them with an ordinary core.Runner
// (local cache over the cluster's remote artifact store), and reports
// canonical result bytes back. Create with NewWorker, drive with Run.
type Worker struct {
	cfg  WorkerConfig
	base string
	inj  *faultinject.Injector
	hc   *http.Client

	leaseMS int64
	pollMS  int64
	store   bool

	// The campaign whose cell the worker holds — its decoded spec and its
	// two Runners, built on first use — replaced when a cell of another
	// campaign arrives. Touched only by Run's goroutine.
	campID string
	camp   core.Campaign
	normal *core.Runner
	fresh  *core.Runner // audit re-executions: own cache, no remote store
}

// NewWorker validates the config and fills defaults.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fabric: worker needs a coordinator address")
	}
	base := strings.TrimRight(cfg.Coordinator, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	e := &cfg.Engine
	if e.CacheDir == "" {
		e.CacheDir = cfg.CacheDir
	}
	if e.Parallelism == 0 {
		e.Parallelism = cfg.Parallelism
	}
	if e.CacheDir == "" {
		dir, err := os.MkdirTemp("", "boom-worker-*")
		if err != nil {
			return nil, fmt.Errorf("fabric: worker cache dir: %w", err)
		}
		e.CacheDir = dir
	}
	e.RemoteStore = ""
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: worker: %w", err)
	}
	inj, _ := e.Injector()
	return &Worker{cfg: cfg, base: base, inj: inj, hc: e.HTTPClient(inj, cfg.ID)}, nil
}

// ID returns the worker's cluster identity.
func (w *Worker) ID() string { return w.cfg.ID }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Log != nil {
		w.cfg.Log(format, args...)
	}
}

// call makes one JSON round trip to a coordinator endpoint (a nil body
// sends none: the campaign-spec GET) under the retry discipline p; every
// failed attempt that leaves another worth making counts into
// fabric.rpc_retries.
func (w *Worker) call(ctx context.Context, p backoff.Policy, method, path string, body, reply any) error {
	return wire.Retry(ctx, p, func(ctx context.Context) error {
		_, err := wire.Do(ctx, w.hc, method, w.base+path, body, reply, maxBody)
		if wire.Retryable(err) {
			w.cfg.Registry.Counter("fabric.rpc_retries").Inc()
		}
		return err
	})
}

// Run is the worker's main loop: register (with retry — the coordinator
// may come up after the worker), then poll/execute/report until ctx is
// canceled. Run only returns ctx.Err(); transient coordinator errors are
// absorbed by backoff.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logf("worker %s: registered with %s (lease %dms, store=%v)",
		w.cfg.ID, w.base, w.leaseMS, w.store)
	idle := time.Duration(w.pollMS) * time.Millisecond
	if idle <= 0 {
		idle = 250 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pr pollResponse
		if err := w.call(ctx, pollPolicy, http.MethodPost, "/v1/fabric/poll", pollRequest{Worker: w.cfg.ID}, &pr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.cfg.Registry.Counter("fabric.poll_errors").Inc()
			if !sleepCtx(ctx, idle) {
				return ctx.Err()
			}
			continue
		}
		if pr.Task == nil {
			wait := idle
			if pr.WaitMS > 0 {
				wait = time.Duration(pr.WaitMS) * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.execute(ctx, *pr.Task)
	}
}

// The worker's RPC retry disciplines. Poll gets one attempt per loop
// iteration (the main loop is its retry, with the coordinator's idle
// hint as the backoff); register, and the two RPCs a leased cell depends
// on — the campaign-spec fetch and the done report — retry in place
// because giving up on them loses work.
var (
	pollPolicy     = backoff.Policy{Attempts: 1, AttemptTimeout: 30 * time.Second}
	registerPolicy = backoff.Policy{
		Attempts: 20, Base: 250 * time.Millisecond, Max: 2 * time.Second,
		AttemptTimeout: 10 * time.Second,
	}
	cellPolicy = backoff.Policy{
		Attempts: 5, Base: 200 * time.Millisecond, Max: 2 * time.Second,
		AttemptTimeout: 10 * time.Second,
	}
)

func (w *Worker) register(ctx context.Context) error {
	var rr registerResponse
	err := w.call(ctx, registerPolicy, http.MethodPost, "/v1/fabric/workers", registerRequest{Worker: w.cfg.ID}, &rr)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fabric: worker %s could not register with %s: %w", w.cfg.ID, w.base, err)
	}
	w.leaseMS, w.pollMS, w.store = rr.LeaseMS, rr.PollMS, rr.Store
	return nil
}

// execute runs one leased cell end to end: hook, heartbeat loop, task
// body, done report. A lost lease (stolen while we ran) abandons the cell
// without reporting — the thief's bytes are identical anyway.
func (w *Worker) execute(ctx context.Context, t Task) {
	if w.cfg.TaskHook != nil {
		w.cfg.TaskHook(t)
	}
	if ctx.Err() != nil {
		return // killed between grant and execution: lease expires, cell is stolen
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	lease := time.Duration(w.leaseMS) * time.Millisecond
	if lease <= 0 {
		lease = 15 * time.Second
	}
	var lost bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(lease / 3)
		defer tick.Stop()
		for {
			select {
			case <-tctx.Done():
				return
			case <-tick.C:
				var hr heartbeatResponse
				hbPolicy := backoff.Policy{Attempts: 2, Base: 100 * time.Millisecond, AttemptTimeout: lease / 3}
				err := w.call(tctx, hbPolicy, http.MethodPost, "/v1/fabric/heartbeat", heartbeatRequest{Worker: w.cfg.ID, Task: t}, &hr)
				if err == nil && hr.Lost {
					lost = true
					w.cfg.Registry.Counter("fabric.leases_lost").Inc()
					cancel() // stop burning cycles on a cell someone else owns
					return
				}
			}
		}
	}()

	payload, err := w.runTask(tctx, t)
	cancel()
	hbWG.Wait()
	if lost {
		w.logf("worker %s: lease lost on %s, abandoning", w.cfg.ID, t.Label())
		return
	}
	if ctx.Err() != nil {
		return // shutdown mid-cell: don't report, let the lease expire
	}

	if err == nil && t.Kind == taskMeasure {
		// Chaos site "fabric.payload/<id>": a worker that computes
		// correctly but reports corrupted bytes — bit flips applied to the
		// canonical payload before it is reported, so the wire JSON stays
		// valid and the lie reaches the coordinator's audit layer instead
		// of dying in a decoder.
		payload = w.inj.Corrupt(payload, "fabric.payload", w.cfg.ID)
	}
	done := doneRequest{Worker: w.cfg.ID, Task: t, OK: err == nil, Payload: payload}
	if err != nil {
		done.Error = err.Error()
		w.cfg.Registry.Counter("fabric.cells_errored").Inc()
		w.logf("worker %s: %s failed: %v", w.cfg.ID, t.Label(), err)
	} else {
		w.cfg.Registry.Counter("fabric.cells_completed").Inc()
	}
	var dr doneResponse
	if rerr := w.call(ctx, cellPolicy, http.MethodPost, "/v1/fabric/done", done, &dr); rerr != nil {
		w.logf("worker %s: could not report %s; lease will expire", w.cfg.ID, t.Label())
	}
}

// runTask executes one cell body, converting panics (chaos drills, model
// bugs) into reported errors so one poisoned cell never takes the worker
// down.
func (w *Worker) runTask(ctx context.Context, t Task) (payload []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("fabric: panic in %s: %v", t.Label(), rec)
		}
	}()
	r, err := w.runnerFor(ctx, t.Campaign, t.Fresh)
	if err != nil {
		return nil, err
	}
	camp := w.camp // runnerFor made t.Campaign the campaign held
	wl, err := workloads.Build(t.Workload, camp.Scale)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case taskProfile:
		// The product is the artifact chain itself: Profile fills the local
		// cache and — via the synchronous write-through in artifact.Cache —
		// the cluster store, so every other worker's measure cells fetch
		// this chain instead of recomputing it.
		_, err := r.Profile(ctx, wl)
		return nil, err
	case taskMeasure:
		for i := range camp.Configs {
			if camp.Configs[i].Name == t.Config {
				p, perr := r.Profile(ctx, wl) // cache/store hit: the gated profile cell ran first
				if perr != nil {
					return nil, perr
				}
				res, rerr := r.Run(ctx, p, camp.Configs[i])
				if rerr != nil {
					return nil, rerr
				}
				return core.EncodeMeasuredResult(res)
			}
		}
		return nil, fmt.Errorf("fabric: campaign has no config %q", t.Config)
	default:
		return nil, fmt.Errorf("fabric: unknown task kind %q", t.Kind)
	}
}

// runnerFor returns (building on first use) one of the current campaign's
// two Runners. A cell of a campaign other than the one the worker holds
// drops that one's spec and Runners and fetches the new spec from the
// coordinator (specs are immutable per fingerprint); the Runner is
// assembled exactly as a single node would, plus the remote store tier when
// the coordinator serves one.
//
// The fresh runner serves audit re-executions, which must derive the
// result independently: it has its own cache directory and no remote store
// tier, so nothing computed by the worker under audit can leak into the
// derivation — agreement means agreement of computations, not of caches.
// Both share the worker's parallelism budget, which is what keeps those
// storeless re-executions from paying full serial latency.
func (w *Worker) runnerFor(ctx context.Context, campaignID string, fresh bool) (*core.Runner, error) {
	if w.campID != campaignID {
		var spec campaignWire
		if err := w.call(ctx, cellPolicy, http.MethodGet, "/v1/fabric/campaigns/"+campaignID, nil, &spec); err != nil {
			return nil, fmt.Errorf("fabric: fetching campaign %s: %w", core.ShortID(campaignID), err)
		}
		w.campID, w.camp, w.normal, w.fresh = campaignID, spec.campaign(), nil, nil
	}
	slot := &w.normal
	if fresh {
		slot = &w.fresh
	}
	if *slot != nil {
		return *slot, nil
	}
	e := w.cfg.Engine
	e.Chaos = "" // armed once per worker (w.inj), not once per Runner
	if fresh {
		e.CacheDir = filepath.Join(e.CacheDir, "audit-fresh")
	}
	opts, err := e.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		core.WithScale(w.camp.Scale),
		core.WithSampling(w.camp.Sampling),
		core.WithMetrics(w.cfg.Registry),
		core.WithFaultInjector(w.inj))
	if w.store && !fresh {
		opts = append(opts, core.WithRemoteStore(artifact.NewRemote(w.base, w.hc)))
	}
	*slot = core.New(core.FlowConfigFor(w.camp.Scale), opts...)
	return *slot, nil
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
