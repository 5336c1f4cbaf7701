package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/boom"
	"repro/internal/workloads"
)

// buildWorkload is how Sweep builds a campaign's workloads; the exit-check
// tests swap in a program that disagrees with its reference.
var buildWorkload = workloads.Build

// checkInvariants turns on boom's per-cycle invariant checker in every core
// measure and measureFull build; the whole-flow invariant test sets it.
var checkInvariants bool

// Sweep profiles every campaign workload once (at the campaign's scale)
// and evaluates it on every design point with the SimPoint flow: N
// configs share one profile/select/checkpoint per workload, both within
// the sweep (phase 1 runs once per workload) and across sweeps (the
// profile stages are config-independent, so their cache artifacts feed
// every design point that ever measures the workload). With a cache, phase
// 1 looks at a workload's cells before its chain: when every one is already
// cached it verifies the chain for its costs and reads only the selection
// (see profileWith). Work is spread across the Runner's parallelism — every
// (workload, config) measurement is independent and deterministic, so
// results are bit-identical to a serial run regardless of worker count,
// metrics attachment, cache state, retries, or which sibling tasks failed.
// Every cell runs through one Session, the path a fabric worker's cells take.
//
// Failure semantics: by default the first task error aborts the sweep
// (remaining tasks drain unrun) and Sweep returns (nil, err). Under
// WithKeepGoing, every task runs, all failures are collected into a
// *SweepErrors, and Sweep returns the partial *Sweep TOGETHER WITH the
// error — callers render what succeeded and report what did not. Missing
// entries in Results mark the failed pairs.
func (r *Runner) Sweep(ctx context.Context, camp Campaign) (*Sweep, error) {
	s := r.Session(camp)
	sw, cells, nprof := s.sw, camp.CellList(), len(camp.Workloads)

	// Phase 1: profile every workload (parallel across workloads).
	profErr := r.runTasks(ctx, cells[:nprof], s.run)
	if profErr != nil && !r.keepGoing {
		return nil, profErr
	}

	// Phase 2: measure every (config, workload) pair (parallel). Pairs
	// whose workload failed to profile are already accounted in profErr
	// and skipped here. Under a canceled context runTasks drains every pair
	// and reports the cancellation itself.
	var measures []Cell
	for _, c := range cells[nprof:] {
		if sw.Profiles[c.Workload] != nil {
			measures = append(measures, c)
		}
	}
	measErr := r.runTasks(ctx, measures, s.run)
	if !r.keepGoing {
		if measErr != nil {
			return nil, measErr
		}
		return sw, nil
	}
	var errs []error // keep-going runTasks returns nil or a *SweepErrors
	for _, e := range []error{profErr, measErr} {
		if se, ok := e.(*SweepErrors); ok {
			errs = append(errs, se.Errs...)
		}
	}
	if len(errs) > 0 {
		return sw, &SweepErrors{Errs: errs}
	}
	return sw, nil
}

// Session is one campaign's cells on one Runner: each workload's key chain
// and cell keys, and the Sweep the cells fill. It runs under the campaign's
// sampling spec, never the Runner's. Runner.Sweep runs every cell of a
// campaign through one; a fabric worker runs each cell it leases through
// the session of the campaign it holds. A session profiles a workload at
// most once — in its profile cell, or in the first measure cell that needs
// it — and reads a payload that profile left unread at most once, so
// however many configs measure a workload, its chain is read or computed
// once. It is safe for concurrent cells.
type Session struct {
	r    *Runner
	camp Campaign
	sw   *Sweep

	mu  sync.Mutex // guards wls and sw's maps
	wls map[string]*sessionWorkload
}

// sessionWorkload is one workload's profile, the measure keys of its cells
// aligned with the campaign's configs (nil without a cache), and
// profileWith's loader for the payloads it only costed (see loadUnread).
type sessionWorkload struct {
	mu    sync.Mutex // held while the workload profiles or loads, and to fill p.TotalInsts
	p     *Profile
	cells []artifact.Key
	load  func(context.Context) error // nil when every payload was read
}

// Session opens a session on camp.
func (r *Runner) Session(camp Campaign) *Session {
	return &Session{r: r, camp: camp, sw: NewSweep(r.fc, camp), wls: map[string]*sessionWorkload{}}
}

// Run runs one cell under the sweep's supervision (see runTask): a panic
// becomes a *StageError carrying its stack, a tripped watchdog is
// transient, and WithRetry applies. A measure cell returns its Result, a
// profile cell nil.
func (s *Session) Run(ctx context.Context, c Cell) (*Result, error) {
	if err := s.r.runTask(ctx, c, s.run); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sw.Results[c.Config][c.Workload], nil
}

// run is one cell's body.
func (s *Session) run(ctx context.Context, c Cell) error {
	switch c.Kind {
	case StageProfile:
		_, err := s.profile(ctx, c.Workload)
		return err
	case StageMeasure:
		return s.measure(ctx, c)
	}
	return fmt.Errorf("core: unknown cell kind %q", c.Kind)
}

// profile returns the workload's state, profiling it first unless the
// session already holds its profile; concurrent callers wait for the
// first, and a failed profile is retried by the next. Every key of the
// workload — its chain and its cells — is derived here, from inputs alone,
// so profileWith can look at the cells before it reads the chain and a
// measure cell derives nothing again.
func (s *Session) profile(ctx context.Context, name string) (*sessionWorkload, error) {
	s.mu.Lock()
	wl := s.wls[name]
	if wl == nil {
		wl = &sessionWorkload{}
		s.wls[name] = wl
	}
	s.mu.Unlock()
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if wl.p != nil {
		return wl, nil
	}
	w, err := buildWorkload(name, s.camp.Scale)
	if err != nil {
		return nil, wrapStage(StageProfile, name, "", err)
	}
	s.r.note("profiling %-14s (%s scale)", name, s.camp.Scale)
	keys := s.r.profileKeys(w, s.camp.Sampling)
	var cells []artifact.Key
	if s.r.cache != nil {
		chain := keys.ckpt.Hex()
		cells = make([]artifact.Key, len(s.camp.Configs))
		for ci, cfg := range s.camp.Configs {
			cells[ci] = measureKey(chain, cfg, s.r.fc.Lib)
		}
	}
	p, load, err := s.r.profileWith(ctx, w, s.camp.Sampling, keys, cells)
	if err != nil {
		return nil, err
	}
	if p.Vectors == nil {
		s.r.note("  %-14s every cell cached: k=%d, %d simpoints, %.0f%% coverage",
			name, p.Selection.K, p.NumSimPoints(), 100*p.Selection.Coverage)
	} else {
		s.r.note("  %-14s %d insts, %d intervals, k=%d, %d simpoints, %.0f%% coverage",
			name, p.TotalInsts, len(p.Vectors), p.Selection.K, p.NumSimPoints(),
			100*p.Selection.Coverage)
	}
	s.mu.Lock()
	s.sw.Profiles[name] = p
	s.mu.Unlock()
	wl.p, wl.cells, wl.load = p, cells, load
	return wl, nil
}

// loadUnread runs load under mu: concurrent cells wait for the first, and a
// failed read is retried by the next (load reads only what is still unread).
func (wl *sessionWorkload) loadUnread(ctx context.Context) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	return wl.load(ctx)
}

// measure is a measure cell's body: the workload's profile, then the
// measurement under the cell's key.
func (s *Session) measure(ctx context.Context, c Cell) error {
	ci := slices.IndexFunc(s.camp.Configs, func(cfg boom.Config) bool { return cfg.Name == c.Config })
	if ci < 0 {
		return wrapStage(StageMeasure, c.Workload, c.Config, errors.New("the campaign has no such config"))
	}
	wl, err := s.profile(ctx, c.Workload)
	if err != nil {
		return err
	}
	s.r.note("measuring %-14s on %s", c.Workload, c.Config)
	var key artifact.Key
	if wl.cells != nil {
		key = wl.cells[ci]
	}
	res, err := s.r.run(ctx, wl.p, s.camp.Configs[ci], key, wl)
	if err != nil {
		return err
	}
	wl.mu.Lock()
	if wl.p.TotalInsts == 0 { // the bbv payload is unread: measure copied the count from the same chain
		wl.p.TotalInsts = res.TotalInsts
	}
	wl.mu.Unlock()
	s.mu.Lock()
	s.sw.Results[c.Config][c.Workload] = res
	s.mu.Unlock()
	return nil
}

// runTasks runs cells on a fixed worker pool, each under runTask, recording
// per-worker busy time and utilization plus task queue-wait into the
// registry. Fail-fast mode (the default) returns the first error and
// drains the remaining queue unrun; keep-going mode runs everything and
// returns a *SweepErrors. Drained tasks increment core.sweep.tasks_drained
// and are excluded from the tasks counter, queue-wait histogram and worker
// busy time. A canceled context surfaces as a *StageError naming the phase
// in flight (the first cell's kind) and wrapping ctx.Err().
func (r *Runner) runTasks(ctx context.Context, cells []Cell, do func(context.Context, Cell) error) error {
	n := len(cells)
	if n == 0 {
		return nil
	}
	workers := r.par
	if workers > n {
		workers = n
	}
	type item struct {
		idx        int
		enqueuedNS int64
	}
	ch := make(chan item, n)
	start := time.Now()
	qwait := r.reg.Histogram("core.sweep.queue_wait_ns")
	tasks := r.reg.Counter("core.sweep.tasks")
	drained := r.reg.Counter("core.sweep.tasks_drained")

	var mu sync.Mutex
	var errs []error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(errs) > 0
	}
	record := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		r.reg.Counter("core.sweep.tasks_failed").Inc()
	}
	busyNS := make([]int64, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for it := range ch {
				if (!r.keepGoing && failed()) || ctx.Err() != nil {
					drained.Inc()
					continue // drain without running (and without accounting)
				}
				t0 := time.Now()
				qwait.Observe(t0.UnixNano() - it.enqueuedNS)
				if err := r.runTask(ctx, cells[it.idx], do); err != nil {
					record(err)
				}
				tasks.Inc()
				busyNS[wk] += time.Since(t0).Nanoseconds()
			}
		}(wk)
	}
	for i := 0; i < n; i++ {
		ch <- item{i, time.Now().UnixNano()}
	}
	close(ch)
	wg.Wait()
	if r.reg != nil {
		wall := time.Since(start).Nanoseconds()
		for wk := 0; wk < workers; wk++ {
			r.reg.Counter(fmt.Sprintf("core.sweep.worker.%02d.busy_ns", wk)).Add(busyNS[wk])
			r.reg.Gauge(fmt.Sprintf("core.sweep.worker.%02d.util", wk)).
				Set(utilization(busyNS[wk], wall))
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		errs = append(errs, &StageError{Stage: cells[0].Kind, Err: cerr})
	}
	if len(errs) == 0 {
		return nil
	}
	if !r.keepGoing {
		return errs[0]
	}
	return &SweepErrors{Errs: errs}
}

// utilization returns the busy/wall worker-utilization ratio as a finite
// value in [0, 1]. A zero or negative wall clock — a degenerate or instant
// sweep on a coarse clock — must yield 0, never NaN or ±Inf: the ratio
// lands in a gauge that -metrics json marshals, and encoding/json rejects
// non-finite numbers outright, so one bad division would kill the whole
// metrics emission. Busy time can marginally exceed the wall measurement
// (the two clock reads are not atomic), so the ratio is clamped at 1.
func utilization(busyNS, wallNS int64) float64 {
	if wallNS <= 0 || busyNS <= 0 {
		return 0
	}
	if u := float64(busyNS) / float64(wallNS); u < 1 {
		return u
	}
	return 1
}

// runTask supervises one cell: guarded attempts under the Runner's retry
// policy (WithRetry), which only transient errors get to use. The cell
// holds one slot of the shared -j budget for its whole attempt chain;
// intra-cell point helpers try-acquire the remainder (points.go), so cells
// plus point workers never exceed -j goroutines combined.
func (r *Runner) runTask(ctx context.Context, c Cell, do func(context.Context, Cell) error) error {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	var err error
	attempts := 0
	rerr := backoff.Retry(ctx, r.retry, func(ctx context.Context) error {
		if attempts++; attempts > 1 {
			r.reg.Counter("core.sweep.retries").Inc()
		}
		if err = r.attempt(ctx, c, do); err != nil && !IsTransient(err) {
			return backoff.Permanent(err)
		}
		return err
	})
	if attempts == 0 {
		err = wrapStage(c.Kind, c.Workload, c.Config, rerr) // canceled before the first attempt
	}
	var se *StageError
	if attempts > 1 && errors.As(err, &se) {
		se.Attempt = attempts
	}
	if err == nil && r.taskHook != nil {
		r.taskHook(int(r.tasksDone.Add(1)))
	}
	return err
}

// attempt runs one guarded try of a task: a panic anywhere below —
// the detailed model, an artifact codec, a workload generator — is
// recovered into a *StageError carrying the captured stack, and a tripped
// per-stage watchdog (deadline exceeded while the sweep's own context is
// still live) is classified transient so the retry policy applies.
func (r *Runner) attempt(parent context.Context, c Cell, do func(context.Context, Cell) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.reg.Counter("core.sweep.panics").Inc()
			err = &StageError{
				Stage:    c.Kind,
				Workload: c.Workload,
				Config:   c.Config,
				Panicked: true,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("panic: %v", p),
			}
		}
	}()
	err = do(parent, c)
	if err != nil && parent.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		r.reg.Counter("core.sweep.timeouts").Inc()
		err = Transient(err)
	}
	return err
}
