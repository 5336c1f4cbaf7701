package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
//
// Failure semantics: by default the first task error aborts the sweep
// (remaining tasks drain unrun) and Sweep returns (nil, err). Under
// WithKeepGoing, every task runs, all failures are collected into a
// *SweepErrors, and Sweep returns the partial *Sweep TOGETHER WITH the
// error — callers render what succeeded and report what did not. Missing
// entries in Results mark the failed pairs.
func (r *Runner) Sweep(ctx context.Context, camp Campaign) (*Sweep, error) {
	names, configs := camp.Workloads, camp.Configs
	var noteMu sync.Mutex
	note := func(format string, args ...interface{}) {
		noteMu.Lock()
		r.note(format, args...)
		noteMu.Unlock()
	}
	spec := r.effectiveSpec(camp)
	sw := NewSweep(r.fc, camp)
	sw.Sampling = spec
	var mu sync.Mutex
	cellKeys := map[string][]artifact.Key{} // by workload, aligned with configs; nil without a cache

	// Phase 1: profile every workload (parallel across workloads). Every
	// key of the workload — its chain and its cells — is derived here, from
	// inputs alone, so profileWith can look at the cells before it reads
	// the chain and phase 2 derives nothing again.
	profErr := r.runTasks(ctx, taskSet{
		stage: StageProfile,
		n:     len(names),
		id:    func(i int) taskID { return taskID{kind: "profile", workload: names[i]} },
		do: func(ctx context.Context, i int) error {
			name := names[i]
			w, err := buildWorkload(name, camp.Scale)
			if err != nil {
				return wrapStage(StageProfile, name, "", err)
			}
			note("profiling %-14s (%s scale)", name, camp.Scale)
			keys := r.profileKeys(w, spec)
			var cells []artifact.Key
			if r.cache != nil {
				chain := keys.ckpt.Hex()
				cells = make([]artifact.Key, len(configs))
				for ci, cfg := range configs {
					cells[ci] = measureKey(chain, cfg, r.fc.Lib)
				}
			}
			p, err := r.profileWith(ctx, w, spec, keys, cells)
			if err != nil {
				return err
			}
			mu.Lock()
			sw.Profiles[name] = p
			cellKeys[name] = cells
			mu.Unlock()
			if p.Vectors == nil {
				note("  %-14s every cell cached: k=%d, %d simpoints, %.0f%% coverage",
					name, p.Selection.K, p.NumSimPoints(), 100*p.Selection.Coverage)
				return nil
			}
			note("  %-14s %d insts, %d intervals, k=%d, %d simpoints, %.0f%% coverage",
				name, p.TotalInsts, len(p.Vectors), p.Selection.K, p.NumSimPoints(),
				100*p.Selection.Coverage)
			return nil
		},
	})
	if profErr != nil && !r.keepGoing {
		return nil, profErr
	}

	// Phase 2: measure every (config, workload) pair (parallel). Pairs
	// whose workload failed to profile are already accounted in profErr
	// and skipped here. Under a canceled context runTasks drains every pair
	// and reports the cancellation itself.
	type pair struct {
		cfg  boom.Config
		name string
		key  artifact.Key
	}
	var pairs []pair
	for ci, cfg := range configs {
		for _, name := range names {
			if sw.Profiles[name] == nil {
				continue
			}
			pr := pair{cfg: cfg, name: name}
			if cells := cellKeys[name]; cells != nil {
				pr.key = cells[ci]
			}
			pairs = append(pairs, pr)
		}
	}
	measErr := r.runTasks(ctx, taskSet{
		stage: StageMeasure,
		n:     len(pairs),
		id: func(i int) taskID {
			return taskID{kind: "measure", workload: pairs[i].name, config: pairs[i].cfg.Name}
		},
		do: func(ctx context.Context, i int) error {
			pr := pairs[i]
			note("measuring %-14s on %s", pr.name, pr.cfg.Name)
			res, err := r.run(ctx, sw.Profiles[pr.name], pr.cfg, pr.key)
			if err != nil {
				return err
			}
			mu.Lock()
			sw.Results[pr.cfg.Name][pr.name] = res
			mu.Unlock()
			return nil
		},
	})
	// A profile whose bbv payload stayed unread takes its instruction
	// count from a result: measure copied it there from the same chain.
	for _, pr := range pairs {
		if p, res := sw.Profiles[pr.name], sw.Results[pr.cfg.Name][pr.name]; p.TotalInsts == 0 && res != nil {
			p.TotalInsts = res.TotalInsts
		}
	}
	if !r.keepGoing {
		if measErr != nil {
			return nil, measErr
		}
		return sw, nil
	}
	var errs []error
	for _, e := range []error{profErr, measErr} {
		var se *SweepErrors
		switch {
		case e == nil:
		case errors.As(e, &se):
			errs = append(errs, se.Errs...)
		default:
			errs = append(errs, e)
		}
	}
	if len(errs) > 0 {
		return sw, &SweepErrors{Errs: errs}
	}
	return sw, nil
}

// taskID names one sweep task for failure identity.
type taskID struct {
	kind     string // "profile" | "measure"
	workload string
	config   string // empty for profile tasks
}

func (id taskID) stage() string {
	if id.kind == "profile" {
		return StageProfile
	}
	return StageMeasure
}

// taskSet is one parallel phase of a sweep.
type taskSet struct {
	stage string
	n     int
	id    func(i int) taskID
	do    func(ctx context.Context, i int) error
}

// runTasks runs a task set on a fixed worker pool under supervision,
// recording per-worker busy time and utilization plus task queue-wait into
// the registry. Fail-fast mode (the default) returns the first error and
// drains the remaining queue unrun; keep-going mode runs everything and
// returns a *SweepErrors. Drained tasks increment core.sweep.tasks_drained
// and are excluded from the tasks counter, queue-wait histogram and worker
// busy time. A canceled context surfaces as a *StageError naming the phase
// in flight and wrapping ctx.Err().
func (r *Runner) runTasks(ctx context.Context, ts taskSet) error {
	if ts.n == 0 {
		return nil
	}
	workers := r.par
	if workers > ts.n {
		workers = ts.n
	}
	type item struct {
		idx        int
		enqueuedNS int64
	}
	ch := make(chan item, ts.n)
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
				// One task holds one slot of the shared -j budget for its
				// whole attempt chain; intra-cell point helpers try-acquire
				// the remainder (points.go), so sweep workers plus point
				// workers never exceed -j goroutines combined.
				r.sem <- struct{}{}
				err := r.runTask(ctx, ts.id(it.idx),
					func(c context.Context) error { return ts.do(c, it.idx) })
				<-r.sem
				if err != nil {
					record(err)
				}
				tasks.Inc()
				busyNS[wk] += time.Since(t0).Nanoseconds()
			}
		}(wk)
	}
	for i := 0; i < ts.n; i++ {
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
		errs = append(errs, &StageError{Stage: ts.stage, Err: cerr})
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

// runTask supervises one task: guarded attempts under the Runner's retry
// policy (WithRetry), which only transient errors get to use.
func (r *Runner) runTask(ctx context.Context, id taskID, do func(context.Context) error) error {
	var err error
	attempts := 0
	rerr := backoff.Retry(ctx, r.retry, func(ctx context.Context) error {
		if attempts++; attempts > 1 {
			r.reg.Counter("core.sweep.retries").Inc()
		}
		if err = r.attempt(ctx, id, do); err != nil && !IsTransient(err) {
			return backoff.Permanent(err)
		}
		return err
	})
	if attempts == 0 {
		err = wrapStage(id.stage(), id.workload, id.config, rerr) // canceled before the first attempt
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
func (r *Runner) attempt(parent context.Context, id taskID, do func(context.Context) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.reg.Counter("core.sweep.panics").Inc()
			err = &StageError{
				Stage:    id.stage(),
				Workload: id.workload,
				Config:   id.config,
				Panicked: true,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("panic: %v", p),
			}
		}
	}()
	err = do(parent)
	if err != nil && parent.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		r.reg.Counter("core.sweep.timeouts").Inc()
		err = Transient(err)
	}
	return err
}
