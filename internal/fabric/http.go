package fabric

import (
	"crypto/sha256"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// The coordinator's HTTP surface. Three worker-facing POST endpoints
// (poll, heartbeat, done), an operator status endpoint that
// answers 503 + Retry-After while the node drains, and the campaign-spec
// fetch workers use to reconstruct the exact design points they measure.
// A handler decodes nothing and writes nothing: it takes the decoded body
// and returns a reply value or an error (a *wire.Error names its status),
// and post/reply put it on the socket after the handler — and with it every
// c.mu critical section — has returned, so a slow peer never holds the lock.

const maxBody = 1 << 26 // 64 MiB: comfortably above any measure payload

// post adapts a handler to the mux: decode the body, run the handler, write
// what it returned.
func post[Req any](c *Coordinator, handle func(Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var body Req
		var v any
		err := wire.ReadJSON(w, req, maxBody, false, &body)
		if err == nil {
			v, err = handle(body)
		}
		c.reply(w, v, err)
	}
}

// reply writes a handler's verdict: v as a 200, or err. An encode failure —
// a closed connection mid-write, an unencodable value — leaves the peer with
// a half-written (or empty) body it will reject; that cannot be repaired
// here, but it must not be silent either: every failure counts into
// fabric.http_encode_errors and the first one is logged — the counter
// carries the rate, the log line the first cause — so an operator can tell
// a misbehaving wire from a healthy one and a flapping client cannot flood
// the log.
func (c *Coordinator) reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		err = wire.WriteError(w, err)
	} else {
		err = wire.WriteJSON(w, http.StatusOK, v)
	}
	if err != nil {
		c.reg.Counter("fabric.http_encode_errors").Inc()
		c.encodeErrOnce.Do(func() {
			c.logf("response encode failed (counting further ones in fabric.http_encode_errors): %v", err)
		})
	}
}

// touchWorker upserts the worker's liveness row: a worker joins with its
// first request of any kind. Every worker-facing handler starts here, so a
// body without a worker id goes no further and no row is ever keyed "".
func (c *Coordinator) touchWorker(id string) error {
	if id == "" {
		return &wire.Error{Status: http.StatusBadRequest, Msg: "worker id required"}
	}
	now := time.Now()
	c.mu.Lock()
	w := c.workers[id]
	fresh := w == nil
	if fresh {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.lastSeen = now
	c.mu.Unlock()
	if fresh {
		c.reg.Gauge("fabric.workers").Add(1)
		c.logf("worker %s joined", id)
	}
	return nil
}

func (c *Coordinator) handlePoll(body pollRequest) (any, error) {
	if err := c.touchWorker(body.Worker); err != nil {
		return nil, err
	}
	// Chaos site: a failed lease grant. The worker treats it like any
	// transient coordinator error — back off and poll again — so the
	// campaign completes (byte-identically) despite the faults.
	if err := c.inj.Hit("fabric.lease", body.Worker); err != nil {
		c.reg.Counter("fabric.lease_faults").Inc()
		return nil, &wire.Error{Status: http.StatusServiceUnavailable, Msg: err.Error()}
	}
	return pollResponse{
		Task:    c.nextTask(body.Worker),
		WaitMS:  c.cfg.Poll.Milliseconds(),
		LeaseMS: c.cfg.Lease.Milliseconds(),
		Store:   c.cfg.Store != nil,
	}, nil
}

func (c *Coordinator) handleHeartbeat(body heartbeatRequest) (any, error) {
	if err := c.touchWorker(body.Worker); err != nil {
		return nil, err
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.run
	if r == nil || r.id != body.Task.Campaign {
		// Not the campaign in flight: retired, or never this coordinator's.
		return heartbeatResponse{Lost: true}, nil
	}
	cl := r.labels[body.Task.Label()]
	if cl == nil || cl.worker != body.Worker || cl.task.Seq != body.Task.Seq {
		// Stolen and possibly regranted under a newer Seq — or already
		// reported. Either way this worker's lease is gone.
		return heartbeatResponse{Lost: true}, nil
	}
	cl.deadline = now.Add(c.cfg.Lease)
	return heartbeatResponse{}, nil
}

// handleDone takes one cell report. Whatever becomes of the bytes — kept,
// dropped as a duplicate or a quarantined worker's, held for audit — the
// worker gets an empty 200 so it stops retrying; only a cell the campaign
// in flight does not have is refused.
func (c *Coordinator) handleDone(body doneRequest) (any, error) {
	if err := c.touchWorker(body.Worker); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.run
	if r == nil || r.id != body.Task.Campaign {
		// Not the campaign in flight: a straggler finishing after its
		// campaign retired. Whatever it computed is in the store already,
		// so acknowledge and drop.
		return struct{}{}, nil
	}
	label := body.Task.Label()
	cl := r.labels[label]
	if cl == nil {
		return nil, &wire.Error{Status: http.StatusBadRequest, Msg: "unknown cell " + label}
	}
	c.acceptLocked(r, cl, body)
	return struct{}{}, nil
}

// acceptLocked folds one report for a cell of the campaign in flight into
// its lease and audit record and the plan.
func (c *Coordinator) acceptLocked(r *run, cl *cell, body doneRequest) {
	label := cl.task.Label()
	if st := r.plan.State(cl.i); st == core.CellDone || st == core.CellFailed {
		// Duplicate report — the slow half of a stolen cell arriving after
		// the fast half. First fingerprint wins, silently; determinism
		// makes the two byte-identical.
		c.reg.Counter("fabric.duplicate_results").Inc()
		return
	}
	if ws := c.workers[body.Worker]; ws != nil && ws.quarantined {
		// A quarantined worker's bytes are never trusted. Its cells were
		// already stolen/requeued when it was quarantined; acknowledge so
		// it stops retrying, and drop the result on the floor.
		c.reg.Counter("fabric.quarantined_reports_dropped").Inc()
		return
	}
	if !body.OK {
		if cl.reports != nil {
			// An audit re-execution failed (chaos, OOM, a flaky node). The
			// original result still stands; return the cell to the audit
			// queue — grantAuditLocked's round budget bounds how long the
			// campaign keeps trying before abandoning verification.
			if cl.worker == body.Worker {
				cl.worker = ""
			}
			c.reg.Counter("fabric.audit_errors").Inc()
			c.logf("campaign %s: audit of %s failed on %s: %s",
				core.ShortID(r.id), label, body.Worker, body.Error)
			return
		}
		cl.attempts++
		c.logf("campaign %s: %s failed on %s (attempt %d/%d): %s",
			core.ShortID(r.id), label, body.Worker, cl.attempts, maxAttempts, body.Error)
		if cl.attempts < maxAttempts {
			cl.worker = ""
			r.plan.Release(cl.i)
			c.reg.Counter("fabric.cells_requeued").Inc()
		} else {
			c.failCellLocked(r, cl, body.Error)
		}
		return
	}
	// A pending cell is the slow half of a stolen one: start it again. One
	// the plan refuses (a measure whose profile is not done) was never
	// granted, so its report is forged or stale; acknowledge and drop it.
	if r.plan.State(cl.i) == core.CellPending && !r.plan.Start(cl.i) {
		return
	}
	sum := sha256.Sum256(body.Payload)
	if cl.reports != nil {
		// An audit vote. Fresh derivations only — a non-Fresh report here
		// is the slow half of a stolen original, which may have read the
		// first worker's artifact from the shared store and so proves
		// nothing. One vote per worker.
		if !body.Task.Fresh || hasVoted(cl, body.Worker) {
			c.reg.Counter("fabric.duplicate_results").Inc()
			return
		}
		cl.reports = append(cl.reports, auditReport{worker: body.Worker, sum: sum, payload: body.Payload})
		c.resolveAuditLocked(r, cl)
		return
	}
	// First completion of a normal cell: either hold it for audit or
	// finalize it outright.
	if c.auditWantedLocked(r, cl, body.Worker, time.Now()) {
		cl.worker = ""
		cl.reports = []auditReport{{worker: body.Worker, sum: sum, payload: body.Payload}}
		c.reg.Counter("fabric.cells_audited").Inc()
		c.logf("campaign %s: holding %s for audit (reported by %s)", core.ShortID(r.id), label, body.Worker)
	} else {
		c.finishCellLocked(r, cl, body.Worker, body.Payload, false)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	drain := c.drain
	c.mu.Unlock()
	if drain != nil && drain() {
		// The same typed rejection submit gives while shutting down: a
		// Retry-After so clients (boomctl status) can distinguish "node
		// draining, ask again" from a dead endpoint.
		c.reply(w, nil, &wire.Error{Status: http.StatusServiceUnavailable,
			Msg: "coordinator is draining; retry later", RetryAfter: wire.RetryHint})
		return
	}
	now := time.Now()
	c.mu.Lock()
	reply := StatusReply{
		Workers:   c.sortedWorkersLocked(now),
		Campaigns: []CampaignStatus{},
	}
	if r := c.run; r != nil {
		cs := CampaignStatus{ID: r.id}
		for _, cl := range r.cells {
			switch r.plan.State(cl.i) {
			case core.CellPending:
				cs.Pending++
			case core.CellRunning:
				if cl.reports != nil {
					cs.Auditing++
				} else {
					cs.Leased++
				}
			case core.CellDone:
				cs.Done++
			case core.CellFailed:
				cs.Failed++
			}
		}
		reply.Campaigns = append(reply.Campaigns, cs)
	}
	c.mu.Unlock()
	c.reply(w, reply, nil)
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	c.mu.Lock()
	var spec []byte
	if r := c.run; r != nil && r.id == id {
		spec = r.spec
	}
	c.mu.Unlock()
	if spec == nil {
		c.reply(w, nil, &wire.Error{Status: http.StatusNotFound, Msg: "no such campaign"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(spec)
}
