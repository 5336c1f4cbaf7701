// Package fabric is the distributed sweep plane: a coordinator that
// shards a campaign's (workload × config) cells across registered
// workers, and the worker loop that leases cells, executes them with the
// ordinary core.Runner, and reports canonical result bytes back.
//
// The design leans entirely on the determinism the rest of the codebase
// already guarantees. Every cell is an isolated, bit-reproducible
// computation keyed by the campaign fingerprint, so the coordinator never
// has to arbitrate between results: a stolen cell finished twice produced
// identical bytes both times, a resumed campaign replays the
// coordinator's journal fragment instead of recomputing, and the merged
// Sweep encodes — via the same wall-clock-free serve.EncodeSweep —
// byte-identically to a single-node Runner.Sweep of the same campaign.
//
// Scheduling is a pull model with leases:
//
//   - Workers POST /v1/fabric/poll; the coordinator grants the first
//     runnable cell (profile cells first; measure cells gate on their
//     workload's profile cell) under a lease with a deadline.
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
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Config carries the coordinator's knobs. The zero value is usable: no
// store, no journal, 15s leases.
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
	// *core.SweepErrors next to the partial Sweep instead of aborting),
	// CacheDir (cells recorded done in the campaign's journal fragment
	// under it are served from it) and Chaos (one injector per
	// coordinator, for the "fabric.lease/<worker>" site).
	Engine core.Engine
	// JournalDir is the shorthand for Engine.CacheDir — where the
	// per-campaign journal fragments live — folded in when that is empty.
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

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed
	cellAuditWait   // completed but held: awaiting an audit re-execution grant
	cellAuditLeased // audit re-execution in flight on another worker
)

// cell is one schedulable unit's authoritative state, guarded by
// Coordinator.mu.
type cell struct {
	task     Task
	state    cellState
	worker   string    // lease owner while leased
	deadline time.Time // lease expiry while leased
	attempts int       // failure reports consumed (steals don't count)
	requires string    // gating cell label ("" = none)
	payload  []byte    // canonical measure bytes once done
	errMsg   string    // terminal failure message

	doneBy      string        // worker whose bytes were accepted
	audited     bool          // payload survived fingerprint verification
	auditRounds int           // audit grants consumed (bounded by maxAuditGrants)
	reports     []auditReport // fingerprint votes while in audit states
}

// run is the campaign in flight.
type run struct {
	id        string
	camp      core.Campaign
	spec      []byte // campaignWire JSON served to workers
	cells     map[string]*cell
	order     []string // deterministic scheduling/assembly order
	remaining int      // cells not yet terminal (done/failed)
	frag      *journal.Writer
	failErr   error // first fatal error (fail-fast mode)
	finished  bool
	done      chan struct{}
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
	if cfg.Engine.CacheDir == "" {
		cfg.Engine.CacheDir = cfg.JournalDir
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
	c.mux.HandleFunc("POST /v1/fabric/workers", post(c, c.handleRegister))
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
		if now.Sub(w.lastSeen) <= 3*c.cfg.Lease {
			n++
		}
	}
	return n
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// RunCampaign distributes one campaign across the registered workers and
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
		core.ShortID(id), len(r.order), c.LiveWorkers())
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

// admit builds the cell graph for one campaign, replays the journal
// fragment a previous coordinator left for this fingerprint, and makes it
// the run in flight — or refuses, touching nothing, when there already is
// one.
func (c *Coordinator) admit(id string, camp core.Campaign) (*run, error) {
	if err := camp.Validate(); err != nil {
		return nil, err
	}
	spec, err := json.Marshal(encodeCampaign(camp))
	if err != nil {
		return nil, err
	}
	r := &run{
		id:    id,
		camp:  camp,
		spec:  spec,
		cells: map[string]*cell{},
		done:  make(chan struct{}),
	}
	for _, wl := range camp.Workloads {
		t := Task{Campaign: id, Kind: taskProfile, Workload: wl}
		r.cells[t.Label()] = &cell{task: t}
		r.order = append(r.order, t.Label())
	}
	for _, cfg := range camp.Configs {
		for _, wl := range camp.Workloads {
			t := Task{Campaign: id, Kind: taskMeasure, Workload: wl, Config: cfg.Name}
			r.cells[t.Label()] = &cell{task: t, requires: taskProfile + "/" + wl}
			r.order = append(r.order, t.Label())
		}
	}
	r.remaining = len(r.order)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != nil {
		return nil, fmt.Errorf("fabric: campaign %s refused: campaign %s is in flight and the coordinator runs one at a time",
			core.ShortID(id), core.ShortID(c.run.id))
	}
	if journalDir := c.cfg.Engine.CacheDir; journalDir != "" {
		resumed := 0
		for label, payload := range MergeJournals(id, FragmentPath(journalDir, id)) {
			cl := r.cells[label]
			if cl == nil || cl.state != cellPending {
				continue
			}
			if cl.task.Kind == taskMeasure && len(payload) == 0 {
				continue // a measure cell without its payload is not done
			}
			cl.state = cellDone
			cl.payload = payload
			r.remaining--
			resumed++
		}
		if resumed > 0 {
			if c.reg != nil {
				c.reg.Counter("fabric.cells_resumed").Add(int64(resumed))
			}
			c.logf("campaign %s: resumed %d cell(s) from journal fragment", core.ShortID(id), resumed)
		}
		r.frag = openFragment(FragmentPath(journalDir, id), id, c.logf)
	}
	c.run = r
	if r.remaining == 0 {
		c.finishLocked(r)
	}
	return r, nil
}

// retire clears the slot of a finished (or abandoned) run. Late
// heartbeats and reports for it are answered "lost" and acknowledged-
// and-dropped — the journal fragment already has everything accepted.
func (c *Coordinator) retire(r *run) {
	c.mu.Lock()
	c.run = nil
	c.mu.Unlock()
	r.frag.Close()
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
	if r == nil || r.finished {
		return nil
	}
	c.expireLeasesLocked(r, now)
	if ws := c.workers[worker]; ws != nil && ws.quarantined {
		return nil
	}
	for _, label := range r.order {
		cl := r.cells[label]
		switch cl.state {
		case cellAuditWait:
			if t := c.grantAuditLocked(r, cl, worker, now); t != nil {
				return t
			}
			continue
		case cellPending:
			// fall through to the normal grant below
		default:
			continue
		}
		if cl.requires != "" {
			switch req := r.cells[cl.requires]; req.state {
			case cellDone:
				// runnable
			case cellFailed:
				c.failCellLocked(r, cl, fmt.Sprintf("dependency %s failed", cl.requires))
				continue
			default:
				continue // profile still pending or in flight
			}
		}
		c.seq++
		cl.state = cellLeased
		cl.worker = worker
		cl.deadline = now.Add(c.cfg.Lease)
		cl.task.Seq = c.seq
		t := cl.task
		c.reg.Counter("fabric.cells_leased").Inc()
		return &t
	}
	return nil
}

// expireLeasesLocked steals cells back from workers whose lease lapsed.
// An expired audit lease returns to the audit queue, not the pending
// queue — the original result is still held for verification.
func (c *Coordinator) expireLeasesLocked(r *run, now time.Time) {
	for _, label := range r.order {
		cl := r.cells[label]
		switch cl.state {
		case cellLeased:
			if now.After(cl.deadline) {
				c.logf("campaign %s: stealing %s from silent worker %s",
					core.ShortID(r.id), label, cl.worker)
				cl.state = cellPending
				cl.worker = ""
				c.reg.Counter("fabric.cells_stolen").Inc()
			}
		case cellAuditLeased:
			if now.After(cl.deadline) {
				c.logf("campaign %s: stealing audit of %s from silent worker %s",
					core.ShortID(r.id), label, cl.worker)
				cl.state = cellAuditWait
				cl.worker = ""
				c.reg.Counter("fabric.cells_stolen").Inc()
			}
		}
	}
}

// failCellLocked marks a cell terminally failed and cascades to pending
// dependents (a measure cell can never run without its profile).
func (c *Coordinator) failCellLocked(r *run, cl *cell, msg string) {
	cl.state = cellFailed
	cl.errMsg = msg
	cl.worker = ""
	r.remaining--
	c.reg.Counter("fabric.cells_failed").Inc()
	if cl.task.Kind == taskProfile {
		for _, label := range r.order {
			dep := r.cells[label]
			if dep.state == cellPending && dep.requires == cl.task.Label() {
				dep.state = cellFailed
				dep.errMsg = fmt.Sprintf("dependency %s failed", cl.task.Label())
				r.remaining--
				c.reg.Counter("fabric.cells_failed").Inc()
			}
		}
	}
	if !c.cfg.Engine.KeepGoing && r.failErr == nil {
		r.failErr = fmt.Errorf("fabric: cell %s failed after %d attempt(s): %s",
			cl.task.Label(), cl.attempts, msg)
		c.finishLocked(r)
		return
	}
	if r.remaining == 0 {
		c.finishLocked(r)
	}
}

func (c *Coordinator) finishLocked(r *run) {
	if !r.finished {
		r.finished = true
		close(r.done)
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
	for _, label := range r.order {
		cl := r.cells[label]
		switch cl.state {
		case cellDone:
			if cl.task.Kind != taskMeasure {
				continue
			}
			res := &core.Result{
				Workload:   cl.task.Workload,
				ConfigName: cl.task.Config,
				Mode:       "simpoint",
			}
			if err := core.DecodeMeasuredResult(cl.payload, res, cfgs[cl.task.Config]); err != nil {
				errs = append(errs, fmt.Errorf("fabric: decoding %s: %w", label, err))
				continue
			}
			sw.Results[cl.task.Config][cl.task.Workload] = res
		case cellFailed:
			errs = append(errs, fmt.Errorf("fabric: cell %s: %s", label, cl.errMsg))
		}
	}
	if r.failErr != nil && !c.cfg.Engine.KeepGoing {
		return nil, r.failErr
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
			Live:        now.Sub(w.lastSeen) <= 3*c.cfg.Lease,
			CellsDone:   w.cellsDone,
			LastSeenMS:  now.Sub(w.lastSeen).Milliseconds(),
			Quarantined: w.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
