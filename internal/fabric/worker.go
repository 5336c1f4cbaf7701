package fabric

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// WorkerConfig carries one worker's knobs; only Coordinator is required.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("host:port" is promoted
	// to "http://host:port").
	Coordinator string
	// ID names the worker in leases, logs, and status ("worker-<pid>" when
	// empty). IDs must be unique per cluster.
	ID string
	// Engine says how the worker runs its cells: through the supervised
	// core.Session a single node's sweep uses, so every knob means what it
	// means there, but KeepGoing (a worker holds one cell at a time) and
	// RemoteStore (the store is the coordinator's) do nothing. CacheDir is
	// the local tier over that store (when empty, a temp dir that Run
	// removes on return). Chaos arms one injector per worker: pipeline and
	// cache sites, the transport (scoped to ID), and "fabric.payload/<id>",
	// which corrupts the bytes this worker reports — the lie
	// coordinator-side auditing exists to catch.
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

// Worker is the execution side of the fabric: it polls a coordinator for
// cells (joining with its first poll), runs them through a core.Session (local
// cache over the cluster's remote artifact store), and reports canonical
// result bytes back. Create with NewWorker, drive with Run.
type Worker struct {
	cfg    WorkerConfig
	base   string
	inj    *faultinject.Injector
	hc     *http.Client
	tmpDir string // the cache dir NewWorker created, if it made one: Run removes it

	// The campaign whose cell the worker holds — its decoded spec and its
	// two sessions with the profiles they took, opened on first use — kept
	// until a cell of another campaign arrives. Touched only by Run's goroutine.
	campID string
	camp   core.Campaign
	normal *core.Session
	store  bool          // the store term normal was opened under
	fresh  *core.Session // audit re-executions: own Runner and profiles, no cache, no remote store
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
	var tmpDir string
	if e.CacheDir == "" {
		dir, err := os.MkdirTemp("", "boom-worker-*")
		if err != nil {
			return nil, fmt.Errorf("fabric: worker cache dir: %w", err)
		}
		e.CacheDir, tmpDir = dir, dir
	}
	e.RemoteStore = ""
	if err := e.Validate(); err != nil {
		os.RemoveAll(tmpDir)
		return nil, fmt.Errorf("fabric: worker: %w", err)
	}
	inj, _ := e.Injector()
	return &Worker{cfg: cfg, base: base, inj: inj, hc: e.HTTPClient(inj, cfg.ID), tmpDir: tmpDir}, nil
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

// Run is the worker's main loop: poll, execute, report, until ctx is
// canceled. The worker joins with its first poll, and takes the
// coordinator's terms from every reply, so it may start before the
// coordinator and follows one that restarts. Run only returns ctx.Err();
// transient coordinator errors are absorbed by backoff. A cache dir
// NewWorker created itself goes with it; a caller-supplied one is left
// alone.
func (w *Worker) Run(ctx context.Context) error {
	if w.tmpDir != "" {
		defer func() {
			if err := os.RemoveAll(w.tmpDir); err != nil {
				w.logf("worker %s: removing its temp cache: %v", w.cfg.ID, err)
			}
		}()
	}
	w.logf("worker %s: polling %s", w.cfg.ID, w.base)
	wait := 250 * time.Millisecond // until the coordinator names its own
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pr pollResponse
		err := w.call(ctx, pollPolicy, http.MethodPost, "/v1/fabric/poll", pollRequest{Worker: w.cfg.ID}, &pr)
		if err == nil && pr.LeaseMS <= 0 {
			err = fmt.Errorf("fabric: poll reply grants a %dms lease", pr.LeaseMS)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.cfg.Registry.Counter("fabric.poll_errors").Inc()
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		if pr.WaitMS > 0 {
			wait = time.Duration(pr.WaitMS) * time.Millisecond
		}
		if pr.Task == nil {
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.execute(ctx, pr)
	}
}

// The worker's RPC retry disciplines. Poll gets one attempt per loop
// iteration (the main loop is its retry, with the coordinator's idle
// hint as the backoff); the two RPCs a leased cell depends on — the
// campaign-spec fetch and the done report — retry in place because giving
// up on them loses work.
var (
	pollPolicy = backoff.Policy{Attempts: 1, AttemptTimeout: 30 * time.Second}
	cellPolicy = backoff.Policy{
		Attempts: 5, Base: 200 * time.Millisecond, Max: 2 * time.Second,
		AttemptTimeout: 10 * time.Second,
	}
)

// execute runs the cell pr granted end to end, under pr's terms: hook,
// heartbeat loop, the cell, done report. A lost lease (stolen while we
// ran) abandons the cell without reporting — the thief's bytes are
// identical anyway.
func (w *Worker) execute(ctx context.Context, pr pollResponse) {
	t := *pr.Task
	if w.cfg.TaskHook != nil {
		w.cfg.TaskHook(t)
	}
	if ctx.Err() != nil {
		return // killed between grant and execution: lease expires, cell is stolen
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	beat := time.Duration(pr.LeaseMS) * time.Millisecond / 3
	var lost bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(beat)
		defer tick.Stop()
		for {
			select {
			case <-tctx.Done():
				return
			case <-tick.C:
				var hr heartbeatResponse
				hbPolicy := backoff.Policy{Attempts: 2, Base: 100 * time.Millisecond, AttemptTimeout: beat}
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

	payload, err := w.runCell(tctx, t, pr.Store)
	cancel()
	hbWG.Wait()
	if lost {
		w.logf("worker %s: lease lost on %s, abandoning", w.cfg.ID, t.Label())
		return
	}
	if ctx.Err() != nil {
		return // shutdown mid-cell: don't report, let the lease expire
	}

	if err == nil && t.Kind == core.StageMeasure {
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
	if rerr := w.call(ctx, cellPolicy, http.MethodPost, "/v1/fabric/done", done, nil); rerr != nil {
		w.logf("worker %s: could not report %s; lease will expire", w.cfg.ID, t.Label())
	}
}

// runCell runs one cell through the session of its campaign, store telling
// whether the coordinator serves a store. A measure cell yields its
// result's canonical payload; a profile cell's product is its chain, which
// the cache writes through to the cluster store.
func (w *Worker) runCell(ctx context.Context, t Task, store bool) ([]byte, error) {
	s, err := w.session(ctx, t.Campaign, t.Fresh, store)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(ctx, t.Cell)
	if err != nil || res == nil {
		return nil, err
	}
	return core.EncodeMeasuredResult(res)
}

// session returns (opening on first use) one of the held campaign's two
// sessions. A cell of another campaign drops that one's spec and sessions
// and fetches the new spec from the coordinator (specs are immutable per
// fingerprint). The normal session's Runner is a single node's, plus the
// remote store tier when the coordinator serves one (store); a store term
// other than the one it was opened under — a restarted coordinator —
// reopens it.
//
// The fresh session serves audit re-executions, which must derive the
// result independently: its Runner has no cache and no store tier, and
// the session its own profiles, so nothing the worker under audit
// computed can leak in — agreement means agreement of computations, not
// of caches.
func (w *Worker) session(ctx context.Context, campaignID string, fresh, store bool) (*core.Session, error) {
	if w.campID != campaignID {
		var camp core.Campaign
		if err := w.call(ctx, cellPolicy, http.MethodGet, "/v1/fabric/campaigns/"+campaignID, nil, &camp); err != nil {
			return nil, fmt.Errorf("fabric: fetching campaign %s: %w", core.ShortID(campaignID), err)
		}
		w.campID, w.camp, w.normal, w.fresh = campaignID, camp, nil, nil
	}
	if w.store != store {
		w.normal, w.store = nil, store
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
		e.CacheDir, e.CacheVerify = "", false
	}
	opts, err := e.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, core.WithMetrics(w.cfg.Registry), core.WithFaultInjector(w.inj))
	if store && !fresh {
		opts = append(opts, core.WithRemoteStore(artifact.NewRemote(w.base, w.hc)))
	}
	*slot = core.New(core.FlowConfigFor(w.camp.Scale), opts...).Session(w.camp)
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
