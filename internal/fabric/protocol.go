package fabric

import (
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// Task kinds. A campaign shards into one profile cell per workload (the
// config-independent BBV→select→checkpoint chain) and one measure cell
// per (workload, config) pair; measure cells are gated on their
// workload's profile cell so the expensive chain runs once per workload
// across the whole cluster, not once per design point.
const (
	taskProfile = "profile"
	taskMeasure = "measure"
)

// Task is one schedulable cell of a distributed campaign. Seq is the
// lease sequence number the coordinator stamps on each grant; heartbeats
// echo it so a renewal for a stolen-and-regranted cell is recognizable
// as stale.
type Task struct {
	Campaign string `json:"campaign"`
	Kind     string `json:"kind"` // taskProfile | taskMeasure
	Workload string `json:"workload"`
	Config   string `json:"config,omitempty"` // measure cells only
	Seq      uint64 `json:"seq"`
	// Fresh marks an audit re-execution: the worker must recompute the
	// cell without the shared remote store (and without its normal local
	// cache), so the result is an independent derivation rather than a
	// copy of the artifact under audit.
	Fresh bool `json:"fresh,omitempty"`
}

// Label names the cell ("profile/<wl>", "measure/<cfg>/<wl>"): its key in
// the run's cell graph and in its journal fragment.
func (t Task) Label() string {
	if t.Kind == taskProfile {
		return t.Kind + "/" + t.Workload
	}
	return t.Kind + "/" + t.Config + "/" + t.Workload
}

// Wire bodies for the coordinator's POST endpoints.

type registerRequest struct {
	Worker string `json:"worker"`
}

type registerResponse struct {
	LeaseMS int64 `json:"lease_ms"`
	PollMS  int64 `json:"poll_ms"`
	// Store reports whether the coordinator serves a remote artifact
	// store at /v1/artifacts/ — workers only attach the remote cache tier
	// when there is something to fetch from.
	Store bool `json:"store"`
}

type pollRequest struct {
	Worker string `json:"worker"`
}

type pollResponse struct {
	Task   *Task `json:"task,omitempty"`
	WaitMS int64 `json:"wait_ms,omitempty"` // idle backoff hint when no task
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
	// Payload is the canonical measure-artifact bytes for measure cells
	// (core.EncodeMeasuredResult); empty for profile cells, whose product
	// travels through the artifact store instead.
	Payload []byte `json:"payload,omitempty"`
	Error   string `json:"error,omitempty"`
}

type doneResponse struct {
	OK bool `json:"ok"`
}

// campaignWire is the spec served by GET /v1/fabric/campaigns/{id}.
// boom.Config is a flat struct of exported scalars (pinned by a
// reflection guard in internal/boom), so a JSON round trip reproduces
// every design point exactly and the worker-side campaign fingerprint
// matches the coordinator's.
type campaignWire struct {
	Workloads []string      `json:"workloads"`
	Configs   []boom.Config `json:"configs"`
	Scale     int           `json:"scale"`
	// Sampling carries the campaign's sampling spec; sampling.Spec is a
	// flat struct of scalars, so the round trip is exact and workers
	// profile/measure under byte-identical sampling parameters.
	Sampling sampling.Spec `json:"sampling"`
}

func encodeCampaign(c core.Campaign) campaignWire {
	return campaignWire{Workloads: c.Workloads, Configs: c.Configs, Scale: int(c.Scale), Sampling: c.Sampling}
}

func (w campaignWire) campaign() core.Campaign {
	c := core.NewCampaign(w.Workloads, w.Configs, workloads.Scale(w.Scale))
	c.Sampling = w.Sampling
	return c
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
