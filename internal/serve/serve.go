// Package serve puts the sweep engine behind an HTTP job service. It is
// the thin layer cmd/boomd is built from: a bounded job queue with
// admission control in front of core.Runner, with campaign fingerprints
// (core.CampaignID, built from the inputs the artifact cache keys
// on) doubling as job IDs, so duplicate in-flight submissions of one
// campaign collapse onto a single sweep.
//
// Endpoints:
//
//	POST /v1/sweeps             submit a campaign; 202 queued, 200 collapsed,
//	                            400 invalid, 429 queue full (+Retry-After),
//	                            503 draining
//
// The POST body (see SweepRequest) names workloads and a scale, plus
// either of two config spellings. The original named form lists
// registered design points:
//
//	{"workloads":["sha","qsort"], "configs":["medium","mega"], "scale":"tiny"}
//
// and keeps resolving to its pinned campaign fingerprints, so job IDs and
// caches stay valid until a deliberate schema bump (internal/core/cache.go).
// The parametric form gives a base point plus per-parameter sweep axes
// (expanded by internal/dse into the validated cross product) and
// optional fixed overrides:
//
//	{"workloads":["sha"], "base":"medium",
//	 "axes":{"rob":[64,96], "predictor":["tage","gshare"]},
//	 "config_overrides":{"l2-kib":1024}, "scale":"tiny"}
//
// Axis and override values may be JSON numbers or strings; "configs" is
// mutually exclusive with "base"/"axes"/"config_overrides".
//
//	GET  /v1/sweeps/{id}        job status
//	GET  /v1/sweeps/{id}/result canonical result JSON; ?wait=1 blocks until
//	                            the job reaches a terminal state
//	GET  /metrics               Prometheus text exposition of the shared
//	                            registry (engine + serving counters)
//	GET  /healthz               liveness (always 200 while the process runs)
//	GET  /readyz                readiness (503 once draining)
//
// The server owns one metrics.Registry shared by every sweep it runs and
// by its own serving counters, so /metrics shows engine internals
// (scheduler utilization, cache hits, retry taxonomy) next to serving
// state (queue depth, collapsed/rejected submissions).
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/wire"
)

// Config carries the daemon's flags into the server. The zero value is a
// usable in-memory server: no cache, no retries, queue depth 8.
type Config struct {
	// Engine says how every sweep executes (see core.Engine). Its Chaos
	// plan is armed afresh for each job.
	Engine core.Engine
	// CacheDir and Parallelism are shorthands for the Engine's fields of
	// the same name, folded in by New where those are zero.
	CacheDir    string
	Parallelism int
	// Sampling is the default sampling spec applied to campaigns whose
	// request carries no "sampling" block. The zero value keeps the
	// legacy flow (and its fingerprints) untouched; a request-level block
	// always wins over this default.
	Sampling sampling.Spec

	// QueueDepth bounds the job queue; submissions beyond it get 429
	// (default 8).
	QueueDepth int

	// TaskHook mirrors core.WithTaskHook (crash drills in tests).
	TaskHook func(completed int)
	// Log receives one line per lifecycle event (nil = silent).
	Log func(format string, args ...interface{})
	// Progress forwards per-stage engine progress lines to Log (noisy).
	Progress bool

	// Registry, when set, replaces the server's private metrics registry —
	// cmd/boomd shares one registry between the server and the fabric
	// coordinator so /metrics shows both planes.
	Registry *metrics.Registry
	// Distribute, when set, replaces the direct Runner.Sweep call for each
	// job: the fabric coordinator's RunCampaign hooks in here, sharding the
	// campaign across registered workers (and falling back to the local
	// runner when none are live). serve deliberately knows nothing about
	// the fabric beyond this signature — the dependency points the other
	// way, fabric_test imports serve to prove byte-identity.
	Distribute func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error)
}

// Server is the HTTP job service. Create with New, serve via Handler,
// stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	mux     *http.ServeMux
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool

	wg sync.WaitGroup
}

// New folds the shorthands into cfg.Engine, validates it and the default
// sampling spec, and starts the sweep goroutine: the daemon runs one sweep
// at a time, under the whole Engine.Parallelism budget.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Engine.CacheDir == "" {
		cfg.Engine.CacheDir = cfg.CacheDir
	}
	if cfg.Engine.Parallelism == 0 {
		cfg.Engine.Parallelism = cfg.Parallelism
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default sampling spec: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// Handler returns the server's HTTP handler with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("serve.http.requests").Inc()
		stop := s.reg.Time("serve.http.request_ns")
		s.mux.ServeHTTP(w, r)
		stop()
	})
}

// Metrics exposes the shared registry (tests assert on serving counters).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Status is the job-state JSON for submit/status responses.
type Status struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Workloads []string `json:"workloads"`
	Configs   []string `json:"configs"`
	Scale     string   `json:"scale"`
	// Sampling is the campaign's effective sampling spec, rendered
	// compactly (absent for the legacy zero spec).
	Sampling string `json:"sampling,omitempty"`
	// Collapsed counts duplicate submissions absorbed by this job.
	Collapsed int    `json:"collapsed,omitempty"`
	Error     string `json:"error,omitempty"`
}

// maxRequest caps a submission body: the largest parametric request is a
// few KB.
const maxRequest = 1 << 20

// decodeSubmit turns a submission into the campaign it asks for: one JSON
// value with no unknown fields (wire.ReadJSON), resolved against the
// registries. Every rejection is a 400.
func (s *Server) decodeSubmit(w http.ResponseWriter, r *http.Request) (core.Campaign, error) {
	var req SweepRequest
	if err := wire.ReadJSON(w, r, maxRequest, true, &req); err != nil {
		return core.Campaign{}, err
	}
	camp, err := resolveRequest(req)
	if err != nil {
		return camp, &wire.Error{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	if camp.Sampling.IsZero() {
		// Daemon-level default; the request's own block (even an explicit
		// empty one, which resolves to the zero spec) was already applied.
		camp.Sampling = s.cfg.Sampling
	}
	return camp, nil
}

// handleSubmit admits a campaign: resolve → fingerprint → single-flight →
// bounded enqueue. The fingerprint is the one the job's Runner (built when
// the job starts, see runJob) computes, so "same campaign" here means
// exactly what the cache and the fabric mean by it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	camp, err := s.decodeSubmit(w, r)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	id := core.CampaignID(core.FlowConfigFor(camp.Scale), camp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected_draining").Inc()
		wire.WriteError(w, &wire.Error{Status: http.StatusServiceUnavailable,
			Msg: "server is draining", RetryAfter: wire.RetryHint})
		return
	}
	if j := s.jobs[id]; j != nil && j.state != jobFailed {
		// Single-flight: this campaign is already queued, running or done.
		j.collapsed++
		st := s.statusLocked(j)
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_collapsed").Inc()
		wire.WriteJSON(w, http.StatusOK, st)
		return
	}
	j := &job{
		id:    id,
		camp:  camp,
		state: jobQueued,
		done:  make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected_full").Inc()
		wire.WriteError(w, &wire.Error{Status: http.StatusTooManyRequests,
			Msg: fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth), RetryAfter: wire.RetryHint})
		return
	}
	s.jobs[id] = j // a failed prior job is replaced: resubmission retries it
	st := s.statusLocked(j)
	depth := len(s.queue)
	s.mu.Unlock()
	s.reg.Counter("serve.jobs_accepted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(depth))
	wire.WriteJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	var st Status
	if j != nil {
		st = s.statusLocked(j)
	}
	s.mu.Unlock()
	if j == nil {
		wire.WriteError(w, &wire.Error{Status: http.StatusNotFound, Msg: "unknown sweep " + id})
		return
	}
	wire.WriteJSON(w, http.StatusOK, st)
}

// handleResult serves the canonical result bytes exactly as the worker
// stored them — no re-encoding per request, so every client of one job
// reads identical bytes. ?wait=1 long-polls until the job is terminal.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		wire.WriteError(w, &wire.Error{Status: http.StatusNotFound, Msg: "unknown sweep " + id})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	state, errMsg, result := j.state, j.err, j.result
	st := s.statusLocked(j)
	s.mu.Unlock()
	switch state {
	case jobDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case jobFailed:
		wire.WriteError(w, &wire.Error{Status: http.StatusInternalServerError, Msg: "sweep failed: " + errMsg})
	default:
		wire.SetRetryAfter(w, "1")
		wire.WriteJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// newRunner builds the engine for one campaign from the daemon's config.
// All sweeps share the server's registry and cache directory.
func (s *Server) newRunner(c core.Campaign) (*core.Runner, error) {
	opts, err := s.cfg.Engine.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, core.WithScale(c.Scale), core.WithMetrics(s.reg))
	if s.cfg.TaskHook != nil {
		opts = append(opts, core.WithTaskHook(s.cfg.TaskHook))
	}
	if s.cfg.Progress && s.cfg.Log != nil {
		log := s.cfg.Log
		opts = append(opts, core.WithProgress(func(m string) { log("%s", m) }))
	}
	return core.New(core.FlowConfigFor(c.Scale), opts...), nil
}

func (s *Server) statusLocked(j *job) Status {
	return Status{
		ID:        j.id,
		State:     string(j.state),
		Workloads: append([]string(nil), j.camp.Workloads...),
		Configs:   j.camp.ConfigNames(),
		Scale:     j.camp.Scale.String(),
		Sampling:  j.camp.Sampling.String(),
		Collapsed: j.collapsed,
		Error:     j.err,
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}
