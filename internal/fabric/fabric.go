// Package fabric is the distributed sweep plane: a coordinator that
// shards a campaign's cells (core.Cell) across the workers polling it, and the
// worker loop that leases cells, runs them through the same supervised
// core.Session a single node's sweep uses, and reports canonical result
// bytes back.
//
// The design leans entirely on the determinism the rest of the codebase
// already guarantees. Every cell is an isolated, bit-reproducible
// computation keyed by the campaign fingerprint, so the coordinator never
// has to arbitrate between results: a stolen cell finished twice produced
// identical bytes both times, a restarted coordinator re-leases every cell
// and each is a store hit, and the merged Sweep encodes — via the same
// wall-clock-free serve.EncodeSweep — byte-identically to a single-node
// Runner.Sweep of the same campaign.
//
// Scheduling is a pull model with leases:
//
//   - Workers POST /v1/fabric/poll — a worker joins with its first poll;
//     the coordinator grants the campaign's core.Plan's next runnable cell
//     (profile cells first; a measure cell once its workload's profile
//     cell is done) under a lease with a deadline. Every reply carries the
//     coordinator's terms (lease, idle backoff, whether it serves a store).
//   - Workers heartbeat while executing; a heartbeat renews the lease. A
//     worker that dies, hangs, or partitions simply stops heartbeating,
//     the lease expires, and the next poll steals the cell back
//     ("fabric.cells_stolen") — node death degrades to extra latency,
//     never to a lost or wrong cell. When the last worker dies nobody is
//     left to poll, so RunCampaign itself watches liveness and finishes
//     the campaign on the local runner ("fabric.local_fallback").
//   - Completed measure cells ship their canonical measure-artifact
//     payload in the done report; profile cells publish their artifacts
//     through the remote store (internal/artifact) instead, so every
//     other worker's measure cells fetch the one profile chain rather
//     than recomputing it — the paper's shared-stage economy, across
//     machines.
//
// Chaos sites: "fabric.lease/<worker>" fails a poll (the worker backs
// off and retries), and the artifact tier's "artifact.fetch/<stage>"
// exercises the fetch-verify-evict path. Both are deterministic under
// internal/faultinject seeds.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// Config carries the coordinator's knobs. The zero value is usable: no
// store, 15s leases.
type Config struct {
	// Store, when set, is served as the cluster's remote artifact store at
	// /v1/artifacts/ (see artifact.NewServer). Point it at the same
	// directory as the local runner's cache so locally-computed and
	// worker-pushed artifacts pool together.
	Store *artifact.Cache
	// Registry collects fabric metrics (cells_done, cells_stolen,
	// workers, per-worker counters). Nil disables instrumentation.
	Registry *metrics.Registry
	// Lease is how long a granted cell stays owned without a heartbeat
	// before it is stolen back (default 15s).
	Lease time.Duration
	// Poll is the idle backoff hint returned to workers when no cell is
	// runnable (default 250ms).
	Poll time.Duration
	// Engine is the engine the daemon runs under (see core.Engine). The
	// coordinator reads KeepGoing (failed cells are collected into a
	// *core.SweepErrors next to the partial Sweep instead of aborting) and
	// Chaos (one injector per coordinator, for the "fabric.lease/<worker>"
	// site) only.
	Engine core.Engine
	// JournalDir is ignored: the coordinator keeps no journal. A restarted
	// coordinator re-leases every cell, and the store serves what finished.
	//
	// Deprecated: leave it empty; nothing reads it.
	JournalDir string
	// AuditFrac is the fraction of completed measure cells re-dispatched
	// to a different worker for fingerprint verification (0 = no auditing,
	// 1 = every cell). The sample is a deterministic function of the
	// campaign fingerprint and cell label (see Audited); divergent workers
	// are quarantined by majority vote.
	AuditFrac float64
	// Log receives one line per lifecycle event (nil = silent).
	Log func(format string, args ...interface{})
}

// maxAttempts bounds how many times a cell that *reports* failure is
// regranted before it is marked failed. Lease expiries are not failures
// and do not count.
const maxAttempts = 3

// Coordinator owns the cell scheduler and the fabric's HTTP surface.
// Create with NewCoordinator; campaigns enter through RunCampaign (the
// serve.Config.Distribute hook), one at a time, and workers through
// Handler.
type Coordinator struct {
	cfg Config
	reg *metrics.Registry
	inj *faultinject.Injector
	mux *http.ServeMux

	mu      sync.Mutex
	workers map[string]*workerState
	run     *run // the campaign in flight; nil between campaigns
	seq     uint64
	drain   func() bool

	// encodeErrOnce gates the single log line for response-encode failures;
	// the rate lives in the fabric.http_encode_errors counter (see http.go).
	encodeErrOnce sync.Once
}

type workerState struct {
	id          string
	lastSeen    time.Time
	cellsDone   int64
	quarantined bool // audit divergence: granted nothing, trusted with nothing
}

// cell is one cell's lease and audit record, guarded by Coordinator.mu;
// whether it is pending, running, done or failed is the run's plan's. A
// running cell is leased (worker set, no reports), held for audit (reports,
// no worker) or out for audit (both).
type cell struct {
	i        int // plan index
	task     Task
	worker   string    // lease owner; set only while the cell runs
	deadline time.Time // lease expiry while worker is set
	attempts int       // failure reports consumed (steals don't count)
	payload  []byte    // canonical measure bytes once done

	doneBy      string        // worker whose bytes were accepted
	audited     bool          // payload survived fingerprint verification
	auditRounds int           // audit grants consumed (bounded by maxAuditGrants)
	reports     []auditReport // fingerprint votes while held or out for audit
}

// run is the campaign in flight: its plan decides what runs and when the
// campaign is over; cells (in plan order) and labels hold the leases.
type run struct {
	id     string
	camp   core.Campaign
	spec   []byte // the campaign's JSON, served to workers
	plan   *core.Plan
	cells  []*cell
	labels map[string]*cell
	done   chan struct{} // closed once the plan is finished
}

// NewCoordinator builds a coordinator and its HTTP routes. It panics if
// cfg.Engine does not validate — a daemon has validated its flags long
// before it gets here.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if err := cfg.Engine.Validate(); err != nil {
		panic("fabric: coordinator: " + err.Error())
	}
	inj, _ := cfg.Engine.Injector()
	c := &Coordinator{
		cfg:     cfg,
		reg:     cfg.Registry,
		inj:     inj,
		workers: map[string]*workerState{},
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/fabric/poll", post(c, c.handlePoll))
	c.mux.HandleFunc("POST /v1/fabric/heartbeat", post(c, c.handleHeartbeat))
	c.mux.HandleFunc("POST /v1/fabric/done", post(c, c.handleDone))
	c.mux.HandleFunc("GET /v1/fabric/status", c.handleStatus)
	c.mux.HandleFunc("GET /v1/fabric/campaigns/{id}", c.handleCampaign)
	if cfg.Store != nil {
		c.mux.Handle("/v1/artifacts/", artifact.NewServer(cfg.Store))
	}
	return c
}

// Handler returns the coordinator's HTTP handler. It serves everything
// under /v1/fabric/ plus — with a Store — the remote artifact store under
// /v1/artifacts/; mount both prefixes on the daemon's mux.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// SetDrainCheck installs the liveness gate for /v1/fabric/status: while
// fn reports true the endpoint answers 503 + Retry-After instead of a
// status body (cmd/boomd wires the serve.Server's Draining here).
func (c *Coordinator) SetDrainCheck(fn func() bool) {
	c.mu.Lock()
	c.drain = fn
	c.mu.Unlock()
}

// LiveWorkers counts workers seen within the liveness window (three
// lease intervals).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if c.live(w, now) {
			n++
		}
	}
	return n
}

// live reports whether w was heard from within the liveness window.
func (c *Coordinator) live(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) <= 3*c.cfg.Lease
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// RunCampaign distributes one campaign across the polling workers and
// blocks until every cell is terminal (or ctx is canceled). It has the
// exact signature of serve.Config.Distribute. One campaign is in flight at
// a time: a call made while another is running is refused with an error
// naming the campaign in flight. With no live workers — at the start, or
// because the last one went silent mid-campaign — the campaign runs on the
// local Runner instead: a coordinator with an empty cluster degrades to a
// single node, byte-identically, and whatever the dead workers pushed to
// the store is a cache hit for it. Error semantics mirror Runner.Sweep:
// fail-fast returns (nil, err) on the first exhausted cell; KeepGoing
// returns the partial Sweep together with a *core.SweepErrors.
func (c *Coordinator) RunCampaign(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error) {
	if local == nil || c.LiveWorkers() > 0 {
		sw, err := c.distribute(ctx, id, camp, local != nil)
		if !errors.Is(err, errNoWorkers) {
			return sw, err
		}
	}
	c.reg.Counter("fabric.local_fallback").Inc()
	c.logf("campaign %s: no live workers, running locally", core.ShortID(id))
	return local.Sweep(ctx, camp)
}

// errNoWorkers is distribute's verdict that nobody is left to poll.
var errNoWorkers = errors.New("fabric: no live workers")

// distribute admits the campaign and waits for its last cell. Leases lapse
// only when somebody polls, so a cluster whose every worker has gone silent
// would wait forever: with fallback set, liveness is re-evaluated at lease
// cadence and the run is abandoned with errNoWorkers.
func (c *Coordinator) distribute(ctx context.Context, id string, camp core.Campaign, fallback bool) (*core.Sweep, error) {
	r, err := c.admit(id, camp)
	if err != nil {
		return nil, err
	}
	defer c.retire(r)
	c.logf("campaign %s: %d cell(s) across %d live worker(s)",
		core.ShortID(id), len(r.cells), c.LiveWorkers())
	tick := time.NewTicker(c.cfg.Lease)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return c.assemble(r)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
			if fallback && c.LiveWorkers() == 0 {
				return nil, errNoWorkers
			}
		}
	}
}

// admit plans one campaign and makes it the run in flight — or refuses,
// touching nothing, when there already is one. Every cell starts pending,
// even after a restart: what a previous coordinator accepted is in the
// store, so re-leasing it costs a fetch, and its bytes pass the audit like
// any other report's.
func (c *Coordinator) admit(id string, camp core.Campaign) (*run, error) {
	if err := camp.Validate(); err != nil {
		return nil, err
	}
	spec, err := json.Marshal(camp)
	if err != nil {
		return nil, err
	}
	r := &run{
		id:     id,
		camp:   camp,
		spec:   spec,
		plan:   core.NewPlan(camp, c.cfg.Engine.KeepGoing),
		labels: map[string]*cell{},
		done:   make(chan struct{}),
	}
	for i, cc := range r.plan.Cells() {
		cl := &cell{i: i, task: Task{Campaign: id, Cell: cc}}
		r.cells = append(r.cells, cl)
		r.labels[cc.Label()] = cl
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != nil {
		return nil, fmt.Errorf("fabric: campaign %s refused: campaign %s is in flight and the coordinator runs one at a time",
			core.ShortID(id), core.ShortID(c.run.id))
	}
	c.run = r
	return r, nil
}

// retire clears the slot of a finished (or abandoned) run. Late
// heartbeats and reports for it are answered "lost" and acknowledged-
// and-dropped — whatever they computed is in the store already.
func (c *Coordinator) retire(r *run) {
	c.mu.Lock()
	c.run = nil
	c.mu.Unlock()
}

// nextTask grants the first runnable cell to worker, stamping a fresh
// lease. Expired leases are reclaimed first, so a stalled worker's cells
// become grantable the moment anyone polls. Quarantined workers are
// granted nothing; cells held for audit are granted — as Fresh
// re-executions — ahead of pending work, since they gate campaign
// completion.
func (c *Coordinator) nextTask(worker string) *Task {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.run
	if r == nil || r.plan.Finished() {
		return nil
	}
	c.expireLeasesLocked(r, now)
	if ws := c.workers[worker]; ws != nil && ws.quarantined {
		return nil
	}
	for _, cl := range r.cells {
		if cl.reports != nil && cl.worker == "" {
			if t := c.grantAuditLocked(r, cl, worker, now); t != nil {
				return t
			}
		}
	}
	i := r.plan.Next()
	if i < 0 {
		return nil
	}
	cl := r.cells[i]
	c.seq++
	cl.worker = worker
	cl.deadline = now.Add(c.cfg.Lease)
	cl.task.Seq = c.seq
	t := cl.task
	c.reg.Counter("fabric.cells_leased").Inc()
	return &t
}

// expireLeasesLocked steals cells back from workers whose lease lapsed.
// An expired audit lease returns the cell to the audit queue, not to
// pending — the original result is still held for verification.
func (c *Coordinator) expireLeasesLocked(r *run, now time.Time) {
	for _, cl := range r.cells {
		if cl.worker == "" || !now.After(cl.deadline) {
			continue
		}
		if cl.reports == nil {
			c.logf("campaign %s: stealing %s from silent worker %s",
				core.ShortID(r.id), cl.task.Label(), cl.worker)
			r.plan.Release(cl.i)
		} else {
			c.logf("campaign %s: stealing audit of %s from silent worker %s",
				core.ShortID(r.id), cl.task.Label(), cl.worker)
		}
		cl.worker = ""
		c.reg.Counter("fabric.cells_stolen").Inc()
	}
}

// failCellLocked marks a cell terminally failed; the plan takes its pending
// dependents down with it (a measure cell can never run without its
// profile).
func (c *Coordinator) failCellLocked(r *run, cl *cell, msg string) {
	cl.worker = ""
	n := r.plan.Fail(cl.i, fmt.Errorf("fabric: cell %s failed after %d attempt(s): %s",
		cl.task.Label(), cl.attempts, msg))
	c.reg.Counter("fabric.cells_failed").Add(int64(n))
	r.closeIfFinished()
}

// closeIfFinished closes done once the plan is finished.
func (r *run) closeIfFinished() {
	select {
	case <-r.done:
	default:
		if r.plan.Finished() {
			close(r.done)
		}
	}
}

// assemble merges a finished run's cells into the Sweep a single node
// would have produced. Profiles are intentionally absent (the encoding
// never consumes them — DESIGN §6's wall-clock-free contract); Results
// decode from each measure cell's canonical payload, which IS the bytes
// the measure artifact holds, so the merge cannot introduce drift.
func (c *Coordinator) assemble(r *run) (*core.Sweep, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := core.NewSweep(core.FlowConfigFor(r.camp.Scale), r.camp)
	cfgs := map[string]boom.Config{}
	for _, cfg := range r.camp.Configs {
		cfgs[cfg.Name] = cfg
	}
	var errs []error
	for _, cl := range r.cells {
		if cl.task.Kind != core.StageMeasure || r.plan.State(cl.i) != core.CellDone {
			continue
		}
		res := &core.Result{
			Workload:   cl.task.Workload,
			ConfigName: cl.task.Config,
			Mode:       "simpoint",
		}
		if err := core.DecodeMeasuredResult(cl.payload, res, cfgs[cl.task.Config]); err != nil {
			errs = append(errs, fmt.Errorf("fabric: decoding %s: %w", cl.task.Label(), err))
			continue
		}
		sw.Results[cl.task.Config][cl.task.Workload] = res
	}
	err := r.plan.Err()
	if err != nil && !c.cfg.Engine.KeepGoing {
		return nil, err
	}
	if se, ok := err.(*core.SweepErrors); ok {
		errs = append(se.Errs, errs...)
	}
	if len(errs) > 0 {
		return sw, &core.SweepErrors{Errs: errs}
	}
	return sw, nil
}

// sortedWorkersLocked snapshots worker rows for the status endpoint.
func (c *Coordinator) sortedWorkersLocked(now time.Time) []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID:          w.id,
			Live:        c.live(w, now),
			CellsDone:   w.cellsDone,
			LastSeenMS:  now.Sub(w.lastSeen).Milliseconds(),
			Quarantined: w.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
