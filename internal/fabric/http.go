package fabric

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The coordinator's HTTP surface. Four worker-facing POST endpoints
// (register, poll, heartbeat, done), an operator status endpoint that
// answers 503 + Retry-After while the node drains, and the campaign-spec
// fetch workers use to reconstruct the exact design points they measure.

const maxBody = 1 << 26 // 64 MiB: comfortably above any measure payload

func (c *Coordinator) readJSON(w http.ResponseWriter, req *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		c.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// writeJSON encodes v as the response body. An encode failure — a closed
// connection mid-write, an unencodable value — leaves the peer with a
// half-written (or empty) body it will reject; that cannot be repaired
// here, but it must not be silent either: every failure counts into
// fabric.http_encode_errors and the first one is logged so an operator
// can tell a misbehaving wire from a healthy one.
func (c *Coordinator) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		c.encodeError(err)
	}
}

func (c *Coordinator) httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		c.encodeError(err)
	}
}

// encodeError accounts one response-encoding failure. Logged once per
// coordinator — the counter carries the rate, the log line carries the
// first cause — so a flapping client cannot flood the log.
func (c *Coordinator) encodeError(err error) {
	c.count("fabric.http_encode_errors")
	c.encodeErrOnce.Do(func() {
		c.logf("response encode failed (counting further ones in fabric.http_encode_errors): %v", err)
	})
}

// touchWorker upserts the worker's liveness row; register reports whether
// this was an explicit registration (logged and gauged) rather than a
// side effect of polling.
func (c *Coordinator) touchWorker(id string, register bool) {
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
		if c.reg != nil {
			c.reg.Gauge("fabric.workers").Add(1)
		}
		if register {
			c.logf("worker %s registered", id)
		} else {
			c.logf("worker %s appeared (poll without register)", id)
		}
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, req *http.Request) {
	var body registerRequest
	if !c.readJSON(w, req, &body) {
		return
	}
	if body.Worker == "" {
		c.httpError(w, http.StatusBadRequest, "worker id required")
		return
	}
	c.touchWorker(body.Worker, true)
	c.writeJSON(w, registerResponse{
		LeaseMS: c.cfg.Lease.Milliseconds(),
		PollMS:  c.cfg.Poll.Milliseconds(),
		Store:   c.cfg.Store != nil,
	})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, req *http.Request) {
	var body pollRequest
	if !c.readJSON(w, req, &body) {
		return
	}
	if body.Worker == "" {
		c.httpError(w, http.StatusBadRequest, "worker id required")
		return
	}
	c.touchWorker(body.Worker, false)
	// Chaos site: a failed lease grant. The worker treats it like any
	// transient coordinator error — back off and poll again — so the
	// campaign completes (byte-identically) despite the faults.
	if err := c.inj.Hit("fabric.lease", body.Worker); err != nil {
		c.count("fabric.lease_faults")
		c.httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if t := c.nextTask(body.Worker); t != nil {
		c.writeJSON(w, pollResponse{Task: t})
		return
	}
	c.writeJSON(w, pollResponse{WaitMS: c.cfg.Poll.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var body heartbeatRequest
	if !c.readJSON(w, req, &body) {
		return
	}
	c.touchWorker(body.Worker, false)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.run
	if r == nil || r.id != body.Task.Campaign {
		// Not the campaign in flight: retired, or never this coordinator's.
		c.writeJSON(w, heartbeatResponse{Lost: true})
		return
	}
	cl := r.cells[body.Task.Label()]
	leased := cl != nil && (cl.state == cellLeased || cl.state == cellAuditLeased)
	if !leased || cl.worker != body.Worker || cl.task.Seq != body.Task.Seq {
		// Stolen and possibly regranted under a newer Seq — or already
		// reported. Either way this worker's lease is gone.
		c.writeJSON(w, heartbeatResponse{Lost: true})
		return
	}
	cl.deadline = now.Add(c.cfg.Lease)
	c.writeJSON(w, heartbeatResponse{})
}

func (c *Coordinator) handleDone(w http.ResponseWriter, req *http.Request) {
	var body doneRequest
	if !c.readJSON(w, req, &body) {
		return
	}
	c.touchWorker(body.Worker, false)
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.run
	if r == nil || r.id != body.Task.Campaign {
		// Not the campaign in flight: a straggler finishing after its
		// campaign retired. Whatever it computed is in the store already,
		// so acknowledge and drop.
		c.writeJSON(w, doneResponse{OK: true})
		return
	}
	label := body.Task.Label()
	cl := r.cells[label]
	if cl == nil {
		c.httpError(w, http.StatusBadRequest, "unknown cell "+label)
		return
	}
	if cl.state == cellDone || cl.state == cellFailed {
		// Duplicate report — the slow half of a stolen cell arriving after
		// the fast half. First fingerprint wins, silently; determinism
		// makes the two byte-identical.
		c.count("fabric.duplicate_results")
		c.writeJSON(w, doneResponse{OK: true})
		return
	}
	if ws := c.workers[body.Worker]; ws != nil && ws.quarantined {
		// A quarantined worker's bytes are never trusted. Its cells were
		// already stolen/requeued when it was quarantined; acknowledge so
		// it stops retrying, and drop the result on the floor.
		c.count("fabric.quarantined_reports_dropped")
		c.writeJSON(w, doneResponse{OK: true})
		return
	}
	if !body.OK {
		if cl.state == cellAuditWait || cl.state == cellAuditLeased {
			// An audit re-execution failed (chaos, OOM, a flaky node). The
			// original result still stands; return the cell to the audit
			// queue — grantAuditLocked's round budget bounds how long the
			// campaign keeps trying before abandoning verification.
			if cl.state == cellAuditLeased && cl.worker == body.Worker {
				cl.state = cellAuditWait
				cl.worker = ""
			}
			c.count("fabric.audit_errors")
			c.logf("campaign %s: audit of %s failed on %s: %s",
				short(r.id), label, body.Worker, body.Error)
			c.writeJSON(w, doneResponse{OK: true})
			return
		}
		cl.attempts++
		c.logf("campaign %s: %s failed on %s (attempt %d/%d): %s",
			short(r.id), label, body.Worker, cl.attempts, maxAttempts, body.Error)
		if cl.attempts < maxAttempts {
			cl.state = cellPending
			cl.worker = ""
			c.count("fabric.cells_requeued")
		} else {
			c.failCellLocked(r, cl, body.Error)
		}
		c.writeJSON(w, doneResponse{OK: true})
		return
	}
	sum := sha256.Sum256(body.Payload)
	if cl.state == cellAuditWait || cl.state == cellAuditLeased {
		// An audit vote. Fresh derivations only — a non-Fresh report here
		// is the slow half of a stolen original, which may have read the
		// first worker's artifact from the shared store and so proves
		// nothing. One vote per worker.
		if !body.Task.Fresh || hasVoted(cl, body.Worker) {
			c.count("fabric.duplicate_results")
			c.writeJSON(w, doneResponse{OK: true})
			return
		}
		cl.reports = append(cl.reports, auditReport{worker: body.Worker, sum: sum, payload: body.Payload})
		c.resolveAuditLocked(r, cl)
		c.writeJSON(w, doneResponse{OK: true})
		return
	}
	// First completion of a normal cell: either hold it for audit or
	// finalize it outright.
	if c.auditWantedLocked(r, cl, body.Worker, time.Now()) {
		cl.state = cellAuditWait
		cl.worker = ""
		cl.reports = []auditReport{{worker: body.Worker, sum: sum, payload: body.Payload}}
		c.count("fabric.cells_audited")
		c.logf("campaign %s: holding %s for audit (reported by %s)", short(r.id), label, body.Worker)
	} else {
		c.finishCellLocked(r, cl, body.Worker, body.Payload, false)
	}
	c.writeJSON(w, doneResponse{OK: true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	drain := c.drain
	c.mu.Unlock()
	if drain != nil && drain() {
		// The same typed rejection submit gives while shutting down: a
		// Retry-After so clients (boomctl status) can distinguish "node
		// draining, ask again" from a dead endpoint.
		w.Header().Set("Retry-After", retryAfterDrain)
		c.httpError(w, http.StatusServiceUnavailable, "coordinator is draining; retry later")
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
		for _, label := range r.order {
			switch r.cells[label].state {
			case cellPending:
				cs.Pending++
			case cellLeased:
				cs.Leased++
			case cellDone:
				cs.Done++
			case cellFailed:
				cs.Failed++
			case cellAuditWait, cellAuditLeased:
				cs.Auditing++
			}
		}
		reply.Campaigns = append(reply.Campaigns, cs)
	}
	c.mu.Unlock()
	c.writeJSON(w, reply)
}

// retryAfterDrain is the Retry-After hint on drain rejections, in seconds:
// the value serve's submit path sends, so one daemon gives one hint.
const retryAfterDrain = "2"

func (c *Coordinator) handleCampaign(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	c.mu.Lock()
	var spec []byte
	if r := c.run; r != nil && r.id == id {
		spec = r.spec
	}
	c.mu.Unlock()
	if spec == nil {
		c.httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(spec)
}
