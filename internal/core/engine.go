package core

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// Engine says how a Runner executes. A Campaign is what gets simulated and
// fixes every result byte; an Engine can never move one — it chooses where
// artifacts live, how failures are handled and how wide the work fans
// out. It is plain data, declared here once: internal/engineflags binds
// one flag to each field (named in its comment), and serve.Config,
// fabric.WorkerConfig and fabric.Config carry the value whole, so a knob
// means the same thing at every entry point. The zero value is a valid
// in-memory, all-cores, fail-fast engine.
type Engine struct {
	// -cache: root of the artifact cache, which is also what a rerun of a
	// killed or failed sweep resumes from ("" = none).
	CacheDir string
	// -cache-verify: recompute every cache hit and fail on divergence.
	CacheVerify bool
	// -remote-store: base URL of a remote artifact store attached as a
	// read-through tier over CacheDir.
	RemoteStore string
	// -remote-connect-timeout, -remote-timeout: the dial bound and the
	// per-RPC response-header bound of every remote tier (store, fabric
	// coordinator); 0 = the defaults below. Split deliberately: one
	// overall client timeout would also cap long polls and big transfers.
	RemoteConnect time.Duration
	RemoteTimeout time.Duration
	// -keep-going: run every (workload, config) pair despite failures.
	KeepGoing bool
	// -retries: re-attempts per sweep task on transient faults, waiting
	// RetryBackoff and doubling.
	Retries int
	// -stage-timeout: watchdog deadline per pipeline stage (0 = none).
	StageTimeout time.Duration
	// -j: the Runner's total worker budget, shared by sweep workers and
	// the point helpers inside each cell (0 = all cores).
	Parallelism int
	// -chaos: deterministic fault-injection plan SEED:SPEC (see
	// internal/faultinject). Every Injector call arms a fresh plan with
	// its own hit counters; when to call it is each carrier's policy.
	Chaos string
}

// RetryBackoff is the base wait between transient-fault retries, the same
// for every carrier so sweep timing is comparable across tools.
const RetryBackoff = 10 * time.Millisecond

// What a zero RemoteConnect / RemoteTimeout stands for.
const (
	DefaultRemoteConnect = 5 * time.Second
	DefaultRemoteTimeout = 60 * time.Second
)

// Validate checks value ranges and the cross-field rule that whatever
// lives under the cache directory needs one. Errors name the flag.
func (e Engine) Validate() error {
	switch {
	case e.Parallelism < 0:
		return fmt.Errorf("-j %d: parallelism must be ≥ 1 (0 = all cores)", e.Parallelism)
	case e.Retries < 0:
		return fmt.Errorf("-retries %d: must be ≥ 0", e.Retries)
	case e.StageTimeout < 0:
		return fmt.Errorf("-stage-timeout %s: must be ≥ 0", e.StageTimeout)
	case e.RemoteConnect < 0:
		return fmt.Errorf("-remote-connect-timeout %s: must be ≥ 0 (0 = %s)", e.RemoteConnect, DefaultRemoteConnect)
	case e.RemoteTimeout < 0:
		return fmt.Errorf("-remote-timeout %s: must be ≥ 0 (0 = %s)", e.RemoteTimeout, DefaultRemoteTimeout)
	case e.CacheDir == "" && e.CacheVerify:
		return fmt.Errorf("-cache-verify requires -cache DIR")
	case e.CacheDir == "" && e.RemoteStore != "":
		return fmt.Errorf("-remote-store requires -cache DIR (the local read-through tier)")
	}
	_, err := e.Injector()
	return err
}

// Injector parses the Chaos plan into a fresh injector (nil when no plan
// is set).
func (e Engine) Injector() (*faultinject.Injector, error) {
	if e.Chaos == "" {
		return nil, nil
	}
	inj, err := faultinject.Parse(e.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	return inj, nil
}

// HTTPClient builds the client every remote tier (remote store, fabric
// coordinator) uses: split connect / response-header timeouts and, when
// inj is set, its network-boundary chaos sites armed through a
// faultinject.Transport. peer scopes per-node chaos rules (the fabric
// worker ID); leave it empty for unscoped clients.
func (e Engine) HTTPClient(inj *faultinject.Injector, peer string) *http.Client {
	connect, response := e.RemoteConnect, e.RemoteTimeout
	if connect == 0 {
		connect = DefaultRemoteConnect
	}
	if response == 0 {
		response = DefaultRemoteTimeout
	}
	hc := artifact.NewHTTPClient(connect, response)
	if inj != nil {
		hc = &http.Client{Transport: &faultinject.Transport{Injector: inj, Base: hc.Transport, Peer: peer}}
	}
	return hc
}

// Options validates the Engine and returns the Runner options it stands
// for — the one knob→option ladder. A Chaos plan is armed as one fresh
// injector shared by the Runner's pipeline sites, its cache and its
// remote-store transport; callers append their own handles (WithMetrics,
// WithProgress, WithTaskHook) next to it.
func (e Engine) Options() ([]Option, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	inj, _ := e.Injector()
	var opts []Option
	if e.Parallelism > 0 {
		opts = append(opts, WithParallelism(e.Parallelism))
	}
	if e.CacheDir != "" {
		opts = append(opts, WithCache(e.CacheDir), WithCacheVerify(e.CacheVerify))
	}
	if e.RemoteStore != "" {
		opts = append(opts, WithRemoteStore(artifact.NewRemote(e.RemoteStore, e.HTTPClient(inj, ""))))
	}
	if e.KeepGoing {
		opts = append(opts, WithKeepGoing(true))
	}
	if e.Retries > 0 {
		opts = append(opts, WithRetry(e.Retries))
	}
	if e.StageTimeout > 0 {
		opts = append(opts, WithStageTimeout(e.StageTimeout))
	}
	if inj != nil {
		opts = append(opts, WithFaultInjector(inj))
	}
	return opts, nil
}

// Option configures a Runner.
type Option func(*Runner)

// Deprecated: WithScale sets nothing. A Campaign carries its scale, and
// Profile and RunFull take a built workload.
func WithScale(workloads.Scale) Option { return func(*Runner) {} }

// WithSampling sets the spec of direct Profile calls; Run measures a
// profile under the spec it was taken with. The zero value (the default)
// means the implicit defaults: per-workload interval, BBV-only features,
// the flow's clustering and warm-up. A Sweep and its CampaignID never read
// it: a sweep runs under its campaign's spec.
func WithSampling(spec sampling.Spec) Option {
	return func(r *Runner) { r.sampling = spec }
}

// WithMetrics attaches a metrics registry: per-stage spans under the
// "flow" root span, functional/detailed throughput, k-means stats, and
// sweep worker utilization. A nil registry disables instrumentation.
func WithMetrics(reg *metrics.Registry) Option {
	return func(r *Runner) { r.reg = reg }
}

// WithParallelism sets the Runner's total worker budget: the number of
// Sweep workers, and — shared with them through one slot semaphore — the
// ceiling on concurrent intra-cell point workers. A cell fans its points
// out over whatever slots the sweep leaves idle, so a single-workload
// campaign uses all of -j while a saturated 11×3 sweep degrades each cell
// to serial measurement — the combined goroutine count never exceeds -j.
// Values below 1 mean "one worker". Default: runtime.GOMAXPROCS(0).
// Results are bit-identical for every parallelism level — each (workload,
// config) measurement is an isolated deterministic core+CPU pair, and
// within a cell the per-point reduction is replayed serially in checkpoint
// order (DESIGN §4).
func WithParallelism(n int) Option {
	return func(r *Runner) { r.par = n }
}

// WithProgress installs a callback receiving human-readable step strings.
func WithProgress(fn func(string)) Option {
	return func(r *Runner) { r.progress = fn }
}

// WithCache attaches a content-addressed artifact cache rooted at dir.
// Every stage then does lookup → compute-on-miss → atomic write, keyed by
// a hash of the stage's full input closure (see internal/core/cache.go).
// Results are bit-identical with and without a cache; an empty dir
// disables caching.
func WithCache(dir string) Option {
	return func(r *Runner) {
		if dir == "" {
			r.cache = nil
			return
		}
		r.cache = artifact.Open(dir)
	}
}

// WithRemoteStore attaches a remote artifact store as a second cache
// tier (see artifact.Cache.SetRemote): local misses fall through to a
// checksum-verified remote fetch, and every Put is pushed through to the
// store so stages computed on this node are visible to every node sharing
// it. This is how the distributed sweep fabric (internal/fabric) gets the
// paper's one-profile-per-workload economy across machines. Requires
// WithCache (the local tier is the read-through cache); without a cache
// the remote is ignored.
func WithRemoteStore(remote *artifact.Remote) Option {
	return func(r *Runner) { r.remote = remote }
}

// WithCacheVerify makes every cache hit recompute the stage and
// byte-compare the canonical payloads, turning silent cache corruption or
// nondeterminism into a hard error. A no-op without WithCache.
func WithCacheVerify(v bool) Option {
	return func(r *Runner) { r.verify = v }
}

// WithStageTimeout bounds each pipeline stage execution with a deadline: a
// workload's profile/select/checkpoint stages individually, and each
// (workload, config) measurement body as one unit. Enforcement is
// cooperative — the deadline is observed at the same interval boundaries
// as context cancellation — and a tripped watchdog surfaces as a transient
// error (errors.Is context.DeadlineExceeded), so WithRetry can re-run the
// stage. Zero (the default) disables the watchdog.
func WithStageTimeout(d time.Duration) Option {
	return func(r *Runner) { r.stageTimeout = d }
}

// WithRetry allows up to n retries (n+1 attempts) per sweep task when the
// failure is transient (see IsTransient): injected chaos, cache I/O, a
// tripped watchdog. Waits between attempts grow exponentially from
// RetryBackoff (1×, 2×, 4×, …) without jitter: a sweep retries in-process
// faults, there is no fleet to de-synchronize. Deterministic model errors —
// deadlocks, invalid configs, diverged checkpoints — are never retried.
// Retries apply to Sweep tasks; direct Profile/Run calls fail on first
// error.
func WithRetry(n int) Option {
	n = max(n, 0)
	// Max is the last wait, so the doubling is never capped.
	p := backoff.Policy{Attempts: n + 1, Base: RetryBackoff, Max: RetryBackoff << max(n-1, 0), Jitter: -1}
	return func(r *Runner) { r.retry = p }
}

// WithKeepGoing makes Sweep run every task regardless of failures, collect
// every task error into a *SweepErrors, and still return all successfully
// measured Results: a long campaign loses exactly the faulted (workload,
// config) pairs, nothing else. Without it (the default), the first failure
// aborts the sweep and the remaining tasks are drained unrun.
func WithKeepGoing(v bool) Option {
	return func(r *Runner) { r.keepGoing = v }
}

// WithFaultInjector attaches a deterministic fault-injection plan (see
// internal/faultinject). The injector is threaded into every fault site
// the Runner controls: core.profile/<wl>, core.measure/<wl>/<cfg>,
// core.estimate/<wl>/<cfg> at each per-point power estimate,
// boom.tick/<wl>/<cfg> inside the detailed model, and the artifact cache's
// read/write sites. Nil (the default) disables every site.
func WithFaultInjector(inj *faultinject.Injector) Option {
	return func(r *Runner) { r.inj = inj }
}

// WithTaskHook installs fn, called after every successfully completed
// sweep task with the Runner's running completion count. This is an
// operational hook for crash drills and progress-driven tooling (e.g.
// "kill the process after N tasks" in crash-recovery tests); fn runs on
// worker goroutines and must be safe for concurrent use.
func WithTaskHook(fn func(completed int)) Option {
	return func(r *Runner) { r.taskHook = fn }
}
