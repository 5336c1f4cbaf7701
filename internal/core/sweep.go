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
// runDetailed builds; the whole-flow invariant test sets it.
var checkInvariants bool

// Sweep profiles every campaign workload once (at the campaign's scale)
// and evaluates it on every design point with the SimPoint flow: N
// configs share one profile/select/checkpoint per workload, both within
// the sweep (each workload's profile cell runs once) and across sweeps (the
// profile stages are config-independent, so their cache artifacts feed
// every design point that ever measures the workload). With a cache, a
// profile cell looks at the workload's measure cells before its chain: when
// every one is already cached it verifies the chain for its costs and reads
// only the selection (see profileWith). The campaign's Plan schedules the
// cells on the Runner's parallelism — a measure cell starts once its own
// profile is done — and every measurement is independent and deterministic,
// so results are bit-identical to a serial run regardless of worker count,
// metrics attachment, cache state, retries, or which sibling tasks failed.
// Every cell runs through one Session, the path a fabric worker's cells take.
//
// Failure semantics: by default the first task error aborts the sweep
// (runnable tasks drain unrun) and Sweep returns (nil, err). Under
// WithKeepGoing, every task runs, all failures are collected into a
// *SweepErrors, and Sweep returns the partial *Sweep TOGETHER WITH the
// error — callers render what succeeded and report what did not. Missing
// entries in Results mark the failed pairs.
func (r *Runner) Sweep(ctx context.Context, camp Campaign) (*Sweep, error) {
	s := r.Session(camp)
	plan := NewPlan(camp, r.keepGoing)
	cells, nprof := plan.Cells(), len(camp.Workloads)
	workers := min(r.par, len(cells))
	qwait := r.reg.Histogram("core.sweep.queue_wait_ns")
	tasks := r.reg.Counter("core.sweep.tasks")
	failed := r.reg.Counter("core.sweep.tasks_failed")

	// Workers take cells from the plan under mu and run them without it;
	// cond wakes the idle ones when a cell finishes. ready[w] is when
	// workload w's measure cells became runnable, for the queue wait.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	running := 0
	start := time.Now()
	ready := make([]time.Time, nprof)
	busyNS := make([]int64, workers)
	var wg sync.WaitGroup
	for wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for ctx.Err() == nil {
				i := plan.Next()
				if i < 0 {
					if running == 0 {
						return
					}
					cond.Wait()
					continue
				}
				since := start
				if i >= nprof {
					since = ready[(i-nprof)%nprof]
				}
				running++
				mu.Unlock()
				t0 := time.Now()
				qwait.Observe(t0.Sub(since).Nanoseconds())
				err := r.runTask(ctx, cells[i], s.run)
				tasks.Inc()
				busyNS[wk] += time.Since(t0).Nanoseconds()
				mu.Lock()
				running--
				if err != nil {
					failed.Inc()
					plan.Fail(i, err)
				} else {
					plan.Done(i)
					if i < nprof {
						ready[i] = time.Now()
					}
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()

	if r.reg != nil {
		wall := time.Since(start).Nanoseconds()
		for wk := range workers {
			r.reg.Counter(fmt.Sprintf("core.sweep.worker.%02d.busy_ns", wk)).Add(busyNS[wk])
			r.reg.Gauge(fmt.Sprintf("core.sweep.worker.%02d.util", wk)).
				Set(utilization(busyNS[wk], wall))
		}
	}
	drained := r.reg.Counter("core.sweep.tasks_drained")
	for i := range cells {
		if plan.runnable(i) {
			drained.Inc()
		}
	}
	// A cancellation that no cell reported fails the first pending cell.
	if cerr := ctx.Err(); cerr != nil && !plan.Finished() && !errors.Is(plan.Err(), cerr) {
		if i := slices.Index(plan.state, CellPending); i >= 0 {
			plan.Fail(i, &StageError{Stage: cells[i].Kind, Err: cerr})
		}
	}
	err := plan.Err()
	if err != nil && !r.keepGoing {
		return nil, err
	}
	return s.sw, err
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
