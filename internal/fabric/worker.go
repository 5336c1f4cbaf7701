package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"repro/internal/journal"
	"repro/internal/metrics"
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

	mu      sync.Mutex
	runners map[runnerKey]*core.Runner // per-campaign, normal and Fresh (storeless)
	camps   map[string]core.Campaign   // decoded campaign specs, keyed by fingerprint
	fragID  string                     // campaign of the one open journal fragment
	frag    *journal.Writer
}

// runnerKey names one of a campaign's two Runners.
type runnerKey struct {
	campaign string // fingerprint
	fresh    bool   // the audit re-execution runner
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
	return &Worker{
		cfg: cfg, base: base, inj: inj, hc: e.HTTPClient(inj, cfg.ID),
		runners: map[runnerKey]*core.Runner{},
		camps:   map[string]core.Campaign{},
	}, nil
}

// ID returns the worker's cluster identity.
func (w *Worker) ID() string { return w.cfg.ID }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Log != nil {
		w.cfg.Log(format, args...)
	}
}

func (w *Worker) count(name string) {
	if w.cfg.Registry != nil {
		w.cfg.Registry.Counter(name).Inc()
	}
}

// rpcError is a non-2xx coordinator answer, typed so retry layers can
// separate refusals (4xx: the coordinator understood and said no) from
// server-side trouble (5xx: retry).
type rpcError struct {
	code int
	msg  string
}

func (e *rpcError) Error() string { return e.msg }

// post sends one JSON round trip to a coordinator endpoint.
func (w *Worker) post(ctx context.Context, path string, body, reply interface{}) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &rpcError{resp.StatusCode, fmt.Sprintf("fabric: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))}
	}
	if reply != nil {
		return json.Unmarshal(raw, reply)
	}
	return nil
}

// postRetry wraps post in the worker's retry discipline: jittered
// exponential backoff with a per-attempt deadline. Transport errors, 5xx
// and stalls retry; 4xx refusals return immediately.
func (w *Worker) postRetry(ctx context.Context, p backoff.Policy, path string, body, reply interface{}) error {
	return backoff.Retry(ctx, p, func(actx context.Context) error {
		err := w.post(actx, path, body, reply)
		if err == nil {
			return nil
		}
		if re, ok := err.(*rpcError); ok && re.code/100 == 4 {
			return backoff.Permanent(err)
		}
		w.count("fabric.rpc_retries")
		return err
	})
}

// Run is the worker's main loop: register (with retry — the coordinator
// may come up after the worker), then poll/execute/report until ctx is
// canceled. Run only returns ctx.Err(); transient coordinator errors are
// absorbed by backoff.
func (w *Worker) Run(ctx context.Context) error {
	defer func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.frag.Close()
		w.fragID, w.frag = "", nil
	}()
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
		if err := w.postRetry(ctx, pollPolicy, "/v1/fabric/poll", pollRequest{Worker: w.cfg.ID}, &pr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.count("fabric.poll_errors")
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
// hint as the backoff); register and done-reports retry in place because
// giving up on them loses work.
var (
	pollPolicy     = backoff.Policy{Attempts: 1, AttemptTimeout: 30 * time.Second}
	registerPolicy = backoff.Policy{
		Attempts: 20, Base: 250 * time.Millisecond, Max: 2 * time.Second,
		AttemptTimeout: 10 * time.Second,
	}
	donePolicy = backoff.Policy{
		Attempts: 5, Base: 200 * time.Millisecond, Max: 2 * time.Second,
		AttemptTimeout: 10 * time.Second,
	}
)

func (w *Worker) register(ctx context.Context) error {
	var rr registerResponse
	err := w.postRetry(ctx, registerPolicy, "/v1/fabric/workers", registerRequest{Worker: w.cfg.ID}, &rr)
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
				err := w.postRetry(tctx, hbPolicy, "/v1/fabric/heartbeat", heartbeatRequest{Worker: w.cfg.ID, Task: t}, &hr)
				if err == nil && hr.Lost {
					lost = true
					w.count("fabric.leases_lost")
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
		// canonical payload before it is journaled or reported, so the
		// wire JSON stays valid and the lie reaches the coordinator's
		// audit layer instead of dying in a decoder.
		payload = w.inj.Corrupt(payload, "fabric.payload", w.cfg.ID)
	}
	if err == nil && !t.Fresh {
		// The worker's own journal fragment: if this node dies before (or
		// while) reporting, an operator can still gather the fragment and
		// MergeJournals it into the coordinator's — the cell's canonical
		// bytes are not lost with the report. Audit re-executions are
		// deliberately not journaled: their product is a vote, not a cell.
		appendCell(w.fragmentFor(t.Campaign), t.Label(), payload)
	}
	done := doneRequest{Worker: w.cfg.ID, Task: t, OK: err == nil, Payload: payload}
	if err != nil {
		done.Error = err.Error()
		w.count("fabric.cells_errored")
		w.logf("worker %s: %s failed: %v", w.cfg.ID, t.Label(), err)
	} else {
		w.count("fabric.cells_completed")
	}
	var dr doneResponse
	if rerr := w.postRetry(ctx, donePolicy, "/v1/fabric/done", done, &dr); rerr != nil {
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
	r, camp, err := w.runnerFor(ctx, t.Campaign, t.Fresh)
	if err != nil {
		return nil, err
	}
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

// runnerFor returns (building on first use) one of a campaign's two
// Runners. The campaign spec is fetched from the coordinator and the
// Runner assembled exactly as a single node would, plus the remote store
// tier when the coordinator serves one.
//
// The fresh runner serves audit re-executions, which must derive the
// result independently: it has its own cache directory and no remote store
// tier, so nothing computed by the worker under audit can leak into the
// derivation — agreement means agreement of computations, not of caches.
// Both share the worker's parallelism budget, which is what keeps those
// storeless re-executions from paying full serial latency.
func (w *Worker) runnerFor(ctx context.Context, campaignID string, fresh bool) (*core.Runner, core.Campaign, error) {
	camp, err := w.fetchCampaign(ctx, campaignID)
	if err != nil {
		return nil, core.Campaign{}, err
	}
	key := runnerKey{campaignID, fresh}
	w.mu.Lock()
	defer w.mu.Unlock()
	if r := w.runners[key]; r != nil {
		return r, camp, nil
	}
	e := w.cfg.Engine
	e.Chaos = "" // armed once per worker (w.inj), not once per Runner
	if fresh {
		e.CacheDir = filepath.Join(e.CacheDir, "audit-fresh")
	}
	opts, err := e.Options()
	if err != nil {
		return nil, core.Campaign{}, err
	}
	opts = append(opts,
		core.WithScale(camp.Scale),
		core.WithSampling(camp.Sampling),
		core.WithMetrics(w.cfg.Registry),
		core.WithFaultInjector(w.inj))
	if w.store && !fresh {
		opts = append(opts, core.WithRemoteStore(artifact.NewRemote(w.base, w.hc)))
	}
	r := core.New(core.FlowConfigFor(camp.Scale), opts...)
	w.runners[key] = r
	return r, camp, nil
}

// fetchCampaign returns the decoded campaign spec, fetching it from the
// coordinator on first use (specs are immutable per fingerprint).
func (w *Worker) fetchCampaign(ctx context.Context, id string) (core.Campaign, error) {
	w.mu.Lock()
	if c, ok := w.camps[id]; ok {
		w.mu.Unlock()
		return c, nil
	}
	w.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/fabric/campaigns/"+id, nil)
	if err != nil {
		return core.Campaign{}, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return core.Campaign{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return core.Campaign{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return core.Campaign{}, fmt.Errorf("fabric: fetching campaign %s: %s", short(id), resp.Status)
	}
	var wire campaignWire
	if err := json.Unmarshal(raw, &wire); err != nil {
		return core.Campaign{}, fmt.Errorf("fabric: campaign %s spec: %w", short(id), err)
	}
	camp := wire.campaign()
	w.mu.Lock()
	w.camps[id] = camp
	w.mu.Unlock()
	return camp, nil
}

// fragmentFor returns the worker's journal fragment for one campaign,
// under the worker's cache directory. A worker runs one cell at a time, so
// only the current campaign's fragment is open: a cell of another campaign
// closes it, and openFragment's extend rule picks it up again when the
// first campaign comes back — a long-lived worker holds one descriptor, not
// one per campaign it has ever seen.
func (w *Worker) fragmentFor(campaignID string) *journal.Writer {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fragID != campaignID {
		if err := w.frag.Close(); err != nil {
			w.logf("worker %s: closing the fragment of campaign %s: %v", w.cfg.ID, short(w.fragID), err)
		}
		w.frag = openFragment(FragmentPath(w.cfg.Engine.CacheDir, campaignID), campaignID, w.logf)
		w.fragID = campaignID // a nil (disabled) fragment is kept too: stays inert
	}
	return w.frag
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
