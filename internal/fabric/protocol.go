package fabric

import "repro/internal/core"

// Task is one lease of a campaign cell (core.Cell). A campaign shards into
// one profile cell per workload and one measure cell per (workload, config)
// pair; measure cells are gated on their workload's profile cell so the
// expensive chain runs once per workload across the whole cluster, not once
// per design point. Seq is the lease sequence number the coordinator stamps
// on each grant; heartbeats echo it so a renewal for a stolen-and-regranted
// cell is recognizable as stale.
type Task struct {
	Campaign string `json:"campaign"`
	core.Cell
	Seq uint64 `json:"seq"`
	// Fresh marks an audit re-execution: the worker must recompute the
	// cell without the shared remote store (and without its normal local
	// cache), so the result is an independent derivation rather than a
	// copy of the artifact under audit.
	Fresh bool `json:"fresh,omitempty"`
}

// Wire bodies for the coordinator's POST endpoints. The spec served by
// GET /v1/fabric/campaigns/{id} is core.Campaign's own JSON.

type pollRequest struct {
	Worker string `json:"worker"`
}

// pollResponse is the only place a worker learns the coordinator's terms:
// every reply carries them, so a worker takes a restarted coordinator's
// lease and store from its next poll.
type pollResponse struct {
	Task    *Task `json:"task,omitempty"`
	WaitMS  int64 `json:"wait_ms,omitempty"` // idle backoff, and the backoff after a failed poll
	LeaseMS int64 `json:"lease_ms"`          // heartbeat every third of it while holding Task
	// Store reports whether the coordinator serves a remote artifact
	// store at /v1/artifacts/ — workers only attach the remote cache tier
	// when there is something to fetch from.
	Store bool `json:"store"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Task   Task   `json:"task"`
}

type heartbeatResponse struct {
	// Lost tells the worker its lease is gone (expired and stolen, or the
	// campaign retired): abandon the cell without reporting.
	Lost bool `json:"lost,omitempty"`
}

type doneRequest struct {
	Worker string `json:"worker"`
	Task   Task   `json:"task"`
	OK     bool   `json:"ok"`
	// Payload is the canonical measure-artifact bytes of a measure cell's
	// result (core.EncodeMeasuredResult); empty for profile cells, whose
	// product travels through the artifact store instead.
	Payload []byte `json:"payload,omitempty"`
	Error   string `json:"error,omitempty"`
}

// WorkerStatus is one worker's row in StatusReply.
type WorkerStatus struct {
	ID         string `json:"id"`
	Live       bool   `json:"live"`
	CellsDone  int64  `json:"cells_done"`
	LastSeenMS int64  `json:"last_seen_ms"` // milliseconds since last contact
	// Quarantined marks a worker whose results diverged from the audit
	// majority: it is granted no further cells and its unaudited results
	// were requeued.
	Quarantined bool `json:"quarantined,omitempty"`
}

// CampaignStatus is the in-flight campaign's cell accounting.
type CampaignStatus struct {
	ID       string `json:"id"`
	Pending  int    `json:"pending"`
	Leased   int    `json:"leased"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Auditing int    `json:"auditing,omitempty"` // completed cells held for audit
}

// StatusReply is the body of GET /v1/fabric/status. While the node is
// draining the endpoint returns 503 with a Retry-After header and an
// {"error": ...} body instead — the same typed rejection submit gives —
// so clients see "draining, retry later", never a bare failure. Campaigns
// lists the campaign in flight: zero or one entry.
type StatusReply struct {
	Draining  bool             `json:"draining"`
	Workers   []WorkerStatus   `json:"workers"`
	Campaigns []CampaignStatus `json:"campaigns"`
}
