package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/faultinject"
	"repro/internal/mav"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// Stage names used for spans and StageError identity, in flow order.
const (
	StageProfile    = "profile"
	StageSelect     = "select"
	StageCheckpoint = "checkpoint"
	StageWarmup     = "warmup"
	StageMeasure    = "measure"
	StageEstimate   = "estimate"
)

// Stages lists every stage name in flow order.
func Stages() []string {
	return []string{StageProfile, StageSelect, StageCheckpoint,
		StageWarmup, StageMeasure, StageEstimate}
}

// Runner executes the SimPoint→power flow. Construct with New; the zero
// value is not usable. A Runner is safe for concurrent use: besides its
// immutable configuration it holds an optional metrics registry and
// artifact cache (both internally synchronized), the shared -j slot budget,
// and the free list of worker-slot scratches under its own mutex (see
// points.go).
//
// Sweep runs under supervision: worker panics are recovered into
// *StageError (never crash the process), per-stage watchdogs bound runaway
// stages (WithStageTimeout), transient faults retry with exponential
// backoff (WithRetry), and failures can be collected instead of aborting
// the campaign (WithKeepGoing). With a cache attached, a killed or failed
// sweep is resumed by rerunning it: every finished stage is a cache hit.
type Runner struct {
	fc           FlowConfig
	sampling     sampling.Spec // direct Profile calls only; a Run takes its profile's (WithSampling)
	reg          *metrics.Registry
	par          int
	sem          chan struct{} // shared -j slot budget (see points.go)
	freeMu       sync.Mutex
	free         *pointScratch // idle point scratches, each with its timing core, linked by next (points.go)
	nfree        int           // the list's length, at most -j
	progress     func(string)
	noteMu       sync.Mutex // one progress line at a time
	cache        *artifact.Cache
	remote       *artifact.Remote
	verify       bool
	stageTimeout time.Duration
	retry        backoff.Policy
	keepGoing    bool
	inj          *faultinject.Injector
	taskHook     func(completed int)
	tasksDone    atomic.Int64
}

// New returns a Runner for the given flow configuration.
func New(fc FlowConfig, opts ...Option) *Runner {
	r := &Runner{
		fc:    fc,
		par:   runtime.GOMAXPROCS(0),
		retry: backoff.Policy{Attempts: 1},
	}
	for _, o := range opts {
		o(r)
	}
	if r.par < 1 {
		r.par = 1
	}
	r.sem = make(chan struct{}, r.par)
	if r.cache != nil {
		r.cache.SetMetrics(r.reg)
		r.cache.SetFaultInjector(r.inj)
		r.cache.SetRemote(r.remote)
		r.cache.SetLog(r.note)
	}
	r.inj.SetMetrics(r.reg)
	return r
}

// Metrics returns the attached registry (nil when none).
func (r *Runner) Metrics() *metrics.Registry { return r.reg }

// Cache returns the attached artifact cache (nil when none).
func (r *Runner) Cache() *artifact.Cache { return r.cache }

// flowLap opens a lap on the root "flow" span; the returned func closes it.
func (r *Runner) flowLap() func() {
	if r.reg == nil {
		return func() {}
	}
	sp := r.reg.Span("flow")
	sp.Start()
	return sp.End
}

// stage opens a lap on one stage span under the "flow" root.
func (r *Runner) stage(name string) func() {
	if r.reg == nil {
		return func() {}
	}
	sp := r.reg.Span("flow").Child(name)
	sp.Start()
	return sp.End
}

func (r *Runner) note(format string, args ...interface{}) {
	if r.progress != nil {
		r.noteMu.Lock()
		defer r.noteMu.Unlock()
		r.progress(fmt.Sprintf(format, args...))
	}
}

// stageCtx derives the per-stage watchdog deadline (WithStageTimeout).
func (r *Runner) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.stageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.stageTimeout)
}

// Profile runs steps 1–3 of the flow (profile → select → checkpoint) for
// one already-built workload, under the Runner's sampling spec
// (WithSampling; the zero spec is the legacy flow). Cancellation is
// cooperative: the context is checked at interval boundaries of the
// functional execution, where any WithStageTimeout deadline is observed
// too. With a cache attached, each step is served from its artifact when
// present. Every field of the returned Profile is set.
func (r *Runner) Profile(ctx context.Context, w *workloads.Workload) (*Profile, error) {
	p, _, err := r.profileWith(ctx, w, r.sampling, r.profileKeys(w, r.sampling), nil)
	return p, err
}

// simpointConfig resolves the clustering config under a spec: the flow's
// scale-derived defaults with the spec's Dims/MaxK overrides applied.
func (r *Runner) simpointConfig(spec sampling.Spec) simpoint.Config {
	cfg := r.fc.SimPoint
	if spec.Dims > 0 {
		cfg.Dims = spec.Dims
	}
	if spec.MaxK > 0 {
		cfg.MaxK = spec.MaxK
	}
	return cfg
}

// allCached is a sweep's look at the cells before the chain: whether the
// local cache holds a file for every stage of a workload's profile chain
// and for every campaign cell measured on it. It is a hint (stats only);
// the reads that follow verify what they serve. -cache-verify recomputes
// every stage, so it never qualifies.
func (r *Runner) allCached(keys profileKeys, cells []artifact.Key) bool {
	if len(cells) == 0 || r.verify {
		return false
	}
	for _, k := range append([]artifact.Key{keys.bbv, keys.sel, keys.ckpt}, cells...) {
		if !r.cache.Has(k) {
			return false
		}
	}
	return true
}

// profileWith is Profile under an explicit sampling spec and its key chain
// (zero without a cache): the spec resolves the interval length (falling
// back to the workload's), the clustering feature set and config, and the
// warm-up budget checkpoints are captured under.
//
// cells are the measure keys of the campaign cells a Sweep will run on the
// profile (nil from Profile). When allCached says all of them will hit,
// nothing downstream reads the bbv and checkpoint payloads, so those two
// stages checksum their entries for the recorded cost alone
// (artifact.Cache.Cost) and return the stages themselves as load (nil when
// every payload was read); an entry that fails there is evicted and its
// stage runs as on any other miss. load reads only what is still unread:
// its caller serializes it and may call it again after a failure.
func (r *Runner) profileWith(ctx context.Context, w *workloads.Workload, spec sampling.Spec,
	keys profileKeys, cells []artifact.Key) (*Profile, func(context.Context) error, error) {
	defer r.flowLap()()

	interval := spec.ResolveInterval(w.IntervalSize)
	warmup := spec.ResolveWarmup(interval, r.fc.WarmupInsts)
	spCfg := r.simpointConfig(spec)

	p := &Profile{Workload: w, Sampling: spec, Interval: interval}
	if r.cache != nil {
		p.CacheKey = keys.ckpt.Hex()
	}
	costOnly := r.allCached(keys, cells)
	// stageCost reads a stage's cost without its payload, under its span.
	stageCost := func(stage string, k artifact.Key) (int64, bool) {
		defer r.stage(stage)()
		return r.cache.Cost(k)
	}
	// The chain's state across its stages and load, in one variable so the
	// stage closures capture one: needBBV / needCkpt say the stage's cost
	// is known and its payload unread; pass is the profile stage's
	// functional pass, held for the checkpoint stage and dropped after it.
	var st struct {
		needBBV, needCkpt bool
		pass              *pass
	}

	// Stage 1: functional execution + BBV (and, under a bbv+mav spec, MAV)
	// profiling, one interval at a time. The same pass marks the memory at
	// every candidate capture point (runPass).
	bbvStage := func(ctx context.Context) (int64, error) {
		defer r.stage(StageProfile)()
		cost, err := r.stageCached(keys.bbv,
			func(payload []byte) error {
				v, m, ti, nb, derr := decodeBBVPayloadSpec(payload, spec)
				if derr != nil {
					return derr
				}
				p.Vectors, p.MAVs, p.TotalInsts, p.NumBlocks = v, m, ti, nb
				return nil
			},
			func() error {
				sctx, cancel := r.stageCtx(ctx)
				defer cancel()
				if ierr := r.inj.Hit("core.profile", w.Name); ierr != nil {
					return ierr
				}
				profiler := bbv.NewProfiler(interval)
				var mavProf *mav.Profiler
				if spec.UseMAV() {
					// Both profilers count every retired instruction, so their
					// interval boundaries coincide and vector i of each stream
					// describes the same instructions.
					mavProf = mav.NewProfiler(interval)
				}
				ps, perr := r.runPass(sctx, w, interval, warmup, -1, profiler, mavProf)
				if perr != nil {
					return perr
				}
				if cerr := checkExit(w, ps.cpu); cerr != nil {
					return cerr
				}
				profiler.Finish()
				p.Vectors, p.TotalInsts, p.NumBlocks = profiler.Vectors(), uint64(ps.insts), profiler.NumBlocks()
				if mavProf != nil {
					mavProf.Finish()
					p.MAVs = mavProf.Vectors()
					if len(p.MAVs) != len(p.Vectors) {
						return fmt.Errorf("profiler drift: %d MAV intervals for %d BBV intervals", len(p.MAVs), len(p.Vectors))
					}
				}
				st.pass = ps // the checkpoint stage's marks
				return nil
			},
			func() ([]byte, error) {
				return encodeBBVPayloadSpec(p.Vectors, p.MAVs, p.TotalInsts, p.NumBlocks, spec)
			})
		return cost, wrapStage(StageProfile, w.Name, "", err)
	}
	var c1 int64
	var err error
	if costOnly {
		c1, st.needBBV = stageCost(StageProfile, keys.bbv)
	}
	if !st.needBBV {
		if c1, err = bbvStage(ctx); err != nil {
			return nil, nil, err
		}
	}

	// Stage 2: SimPoint selection.
	endStage := r.stage(StageSelect)
	c2, err := r.stageCached(keys.sel,
		func(payload []byte) error {
			s, derr := simpoint.DecodeResult(bytes.NewReader(payload))
			if derr != nil {
				return derr
			}
			p.Selection = s
			return nil
		},
		func() error {
			if st.needBBV { // clustering needs the vectors after all
				if _, berr := bbvStage(ctx); berr != nil {
					return berr
				}
				st.needBBV = false
			}
			var s *simpoint.Result
			var serr error
			if spec.UseMAV() {
				s, serr = simpoint.ChooseCombined(p.Vectors, p.MAVs, spCfg)
			} else {
				s, serr = simpoint.Choose(p.Vectors, spCfg)
			}
			if serr != nil {
				return serr
			}
			p.Selection = s
			return nil
		},
		func() ([]byte, error) {
			var buf bytes.Buffer
			if eerr := simpoint.EncodeResult(&buf, p.Selection); eerr != nil {
				return nil, eerr
			}
			return buf.Bytes(), nil
		})
	if sel := p.Selection; err == nil {
		r.reg.Counter("simpoint.kmeans.runs").Add(int64(sel.Stats.Runs))
		r.reg.Counter("simpoint.kmeans.iterations").Add(int64(sel.Stats.Iterations))
		r.reg.Gauge("simpoint.k").Set(float64(sel.K))
		r.reg.Gauge("simpoint.coverage").Set(sel.Coverage)
	}
	endStage()
	if err != nil {
		return nil, nil, wrapStage(StageSelect, w.Name, "", err)
	}
	sel := p.Selection

	// Stage 3: checkpoint creation. Checkpoints are taken WarmupInsts
	// before each simulation point (clamped at program start): each is its
	// capture point's mark in the profile stage's pass, or — when that
	// stage was served from the cache — in a pass that stops at the last
	// capture point.
	ckptStage := func(ctx context.Context) (int64, error) {
		defer r.stage(StageCheckpoint)()
		// The payload's first point stores its pages against the entry's.
		entry, err := w.Entry()
		if err != nil {
			return 0, wrapStage(StageCheckpoint, w.Name, "", err)
		}
		cks, warmups := shells(sel, interval, warmup)
		cost, err := r.stageCached(keys.ckpt,
			func(payload []byte) error {
				if derr := decodeCkptPayload(payload, cks, entry.Mem); derr != nil {
					return derr
				}
				p.Checkpoints, p.WarmupInsts = cks, warmups
				return nil
			},
			func() error {
				ps := st.pass // the marks the checkpoints come from
				if ps == nil {
					// The profile stage was a cache hit: execute up to the last capture point.
					sctx, cancel := r.stageCtx(ctx)
					defer cancel()
					var last int64
					for _, k := range cks {
						last = max(last, int64(k.InstRet))
					}
					var perr error
					if ps, perr = r.runPass(sctx, w, interval, warmup, last, nil, nil); perr != nil {
						return perr
					}
				}
				if ferr := ps.fill(cks); ferr != nil {
					return ferr
				}
				p.Checkpoints, p.WarmupInsts = cks, warmups
				return nil
			},
			func() ([]byte, error) {
				return encodeCkptPayload(p.Checkpoints, entry.Mem)
			})
		return cost, wrapStage(StageCheckpoint, w.Name, "", err)
	}
	var c3 int64
	if costOnly {
		c3, st.needCkpt = stageCost(StageCheckpoint, keys.ckpt)
	}
	if !st.needCkpt {
		if c3, err = ckptStage(ctx); err != nil {
			return nil, nil, err
		}
	}
	st.pass = nil // a checkpoint stage that load recomputes runs its own pass
	p.WallNS = c1 + c2 + c3

	var load func(context.Context) error
	if st.needBBV || st.needCkpt {
		load = func(ctx context.Context) error {
			if st.needBBV {
				if _, err := bbvStage(ctx); err != nil {
					return err
				}
				st.needBBV = false
			}
			if st.needCkpt {
				if _, err := ckptStage(ctx); err != nil {
					return err
				}
				st.needCkpt = false
			}
			st.pass = nil
			return nil
		}
	}
	return p, load, nil
}

// Run executes steps 4–5 of the flow for one profiled workload on one
// configuration: restore every checkpoint, warm up, measure, and estimate
// power, aggregating by cluster weight. The context is checked between
// simulation points. With a cache attached, the whole measurement is one
// artifact keyed off the profile's chain. A profile whose payloads a warm
// Sweep left unread is first read again, whole, through this Runner (its
// cache, registry and fault plan) under the profile's own spec.
func (r *Runner) Run(ctx context.Context, p *Profile, cfg boom.Config) (*Result, error) {
	if p.Vectors == nil || p.Checkpoints == nil {
		var err error
		if p, _, err = r.profileWith(ctx, p.Workload, p.Sampling, r.profileKeys(p.Workload, p.Sampling), nil); err != nil {
			return nil, err
		}
	}
	var key artifact.Key
	if r.cache != nil && p.CacheKey != "" {
		key = measureKey(p.CacheKey, cfg, r.fc.Lib)
	}
	return r.run(ctx, p, cfg, key, nil)
}

// run is Run under an already-derived measure key (zero: uncached); Sweep
// derives each cell's key once, for its probe and for this. wl, the
// session's state of p's workload (nil from Run), reads the payloads p left
// unread ahead of the measurement's compute body — never on a hit.
func (r *Runner) run(ctx context.Context, p *Profile, cfg boom.Config, key artifact.Key, wl *sessionWorkload) (*Result, error) {
	defer r.flowLap()()

	res := &Result{
		Workload:   p.Workload.Name,
		Suite:      p.Workload.Suite,
		ConfigName: cfg.Name,
		Mode:       "simpoint",
	}
	var warmShare float64 // of the measurement's wall-clock, spent in Core.Warm
	computed := false
	cost, err := r.stageCached(key,
		func(payload []byte) error { return decodeResultPayload(payload, res, cfg.IntIssueSlots) },
		func() (err error) {
			if wl != nil && wl.load != nil {
				if err := wl.loadUnread(ctx); err != nil {
					return err
				}
			}
			warmShare, err = r.measure(ctx, p, cfg, res)
			computed = true
			return err
		},
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, p.Workload.Name, cfg.Name, err)
	}
	res.MeasureWallNS, res.TickWallNS = cost, cost
	if p.Sampling.WarmupPolicy == sampling.WarmupProportional {
		res.TickWallNS = r.tickWallNS(key, cost, warmShare, computed)
	}
	return res, nil
}

// tickWallNS is a proportional measurement's tick-kernel wall-clock: its
// cost less the share spent in Core.Warm when it was computed here, else
// what the entry at tickKey recorded when it was (0 when none did). A cache
// verification pass reports the recorded figure, as it does the cost. The
// figure is advisory like a cost, so a failed write only leaves a later
// hit without it.
func (r *Runner) tickWallNS(key artifact.Key, cost int64, warmShare float64, computed bool) int64 {
	cached := r.cache != nil && key.Stage != ""
	var tk artifact.Key
	if cached {
		tk = tickKey(key)
		if !computed || r.verify {
			if payload, _, ok := r.cache.Get(tk); ok && len(payload) == 8 {
				if tick := int64(binary.LittleEndian.Uint64(payload)); tick >= 0 && tick <= cost {
					return tick
				}
			}
		}
	}
	if !computed {
		return 0
	}
	tick := cost - int64(warmShare*float64(cost))
	if cached {
		_ = r.cache.Put(tk, binary.LittleEndian.AppendUint64(nil, uint64(tick)), 0)
	}
	return tick
}

// measure is the compute body of Run: warm up, measure and estimate every
// simulation point, filling res (everything but MeasureWallNS and
// TickWallNS). res is only written after the full measurement succeeds, so
// a failed attempt never leaks partial state into a retry. It returns the
// share of the points' wall-clock spent in Core.Warm, which the tick
// kernel's wall-clock excludes.
//
// Points are measured concurrently (see points.go): each restores its own
// checkpoint into its worker slot's CPU and Resets the slot's timing core,
// cold, to cfg (runDetailed), deposits its raw
// measurement into an index-addressed slot, and the floating-point
// reduction replays serially in checkpoint order — bit-identical to a
// serial loop at every parallelism level.
func (r *Runner) measure(ctx context.Context, p *Profile, cfg boom.Config, res *Result) (warmShare float64, err error) {
	serr := func(stage string, err error) error {
		return &StageError{Stage: stage, Workload: p.Workload.Name, Config: cfg.Name, Err: err}
	}
	mctx, cancel := r.stageCtx(ctx)
	defer cancel()
	// pctx carries the sibling-failure abort: the first failing point
	// cancels it with errSiblingPoint so the others stop claiming work
	// without manufacturing errors of their own.
	pctx, abort := context.WithCancelCause(mctx)
	defer abort(nil)
	if err := r.inj.Hit("core.measure", p.Workload.Name, cfg.Name); err != nil {
		return 0, serr(StageMeasure, err)
	}

	est := power.NewEstimator(cfg, r.fc.Lib)
	est.SetMetrics(r.reg)

	n := len(p.Checkpoints)
	outs := make([]pointOutput, n)
	// One backing array serves every point's slot vector: point workers
	// write disjoint sub-slices, nothing is shared or resized.
	slotBuf := make([]float64, n*cfg.IntIssueSlots)
	inflight := r.reg.Gauge("core.measure.points_inflight")
	pointNS := r.reg.Histogram("core.measure.point_ns")
	pointsDone := r.reg.Counter("core.measure.points")

	r.runPoints(n, func(i int, scratch *pointScratch) {
		out := &outs[i]
		defer func() {
			if rec := recover(); rec != nil {
				// Captured here so a helper goroutine's panic cannot kill
				// the process; re-thrown in checkpoint order by
				// firstPointFailure for the sweep supervisor to recover.
				out.panicked = rec
			}
			if out.panicked != nil || out.err != nil {
				abort(errSiblingPoint)
			}
		}()
		if cerr := pctx.Err(); cerr != nil {
			if context.Cause(pctx) == errSiblingPoint {
				out.aborted = true
			} else {
				out.err = serr(StageMeasure, cerr)
			}
			return
		}
		inflight.Add(1)
		t0 := time.Now()
		defer func() {
			inflight.Add(-1)
			pointsDone.Inc()
			out.wallNS = time.Since(t0).Nanoseconds()
			pointNS.Observe(out.wallNS)
		}()

		ran, warmNS, err := r.runDetailed(pctx, scratch, p.Workload, cfg, p.Sampling.WarmupPolicy,
			p.Checkpoints[i], uint64(p.WarmupInsts[i]), uint64(p.Interval))
		out.warmNS = warmNS
		if err != nil {
			out.err = err
			return
		}
		out.detailed = ran
		st := scratch.core.Stats()

		endStage := r.stage(StageEstimate)
		// Per-point estimates are consumed immediately, so each worker's
		// scratch Report serves every point it measures — the zero-alloc
		// accumulation path, now per-worker instead of shared. A failed
		// estimate is as fatal as the aggregate estimate below: silently
		// dropping the point would leave Points inconsistent with the
		// accumulated Stats.
		perr := r.inj.Hit("core.estimate", p.Workload.Name, cfg.Name)
		if perr == nil {
			perr = est.EstimateInto(&scratch.report, st)
		}
		if perr != nil {
			endStage()
			out.err = serr(StageEstimate, perr)
			return
		}
		out.point = PointResult{
			Interval: p.Checkpoints[i].Interval,
			Weight:   p.Selection.Selected[i].Weight,
			IPC:      st.IPC(),
			PowerMW:  scratch.report.TotalMW(),
		}
		dst := slotBuf[i*cfg.IntIssueSlots : (i+1)*cfg.IntIssueSlots : (i+1)*cfg.IntIssueSlots]
		out.slots = est.SlotPowerInto(dst, st)
		out.stats = st
		endStage()
	})
	if ferr := firstPointFailure(outs); ferr != nil {
		return 0, ferr
	}

	// Ordered reduce: replay the accumulation serially in checkpoint order.
	agg, aggSlots, points, detailed := foldPoints(&cfg, p.Selection, outs)
	// Points may run concurrently, so the warm share is taken of the
	// points' summed wall-clock, not of the measurement's.
	var warmNS, pointsNS int64
	for i := range outs {
		warmNS += outs[i].warmNS
		pointsNS += outs[i].wallNS
	}
	if pointsNS > 0 {
		warmShare = float64(warmNS) / float64(pointsNS)
	}

	endStage := r.stage(StageEstimate)
	rep, err := est.Estimate(agg)
	endStage()
	if err != nil {
		return 0, serr(StageEstimate, err)
	}
	// Normalize the weighted slot powers by coverage so partial coverage
	// does not deflate them. A degenerate selection can carry a zero (or
	// non-finite) coverage; dividing by it would poison every slot power
	// with NaN/Inf, so such a selection skips normalization.
	if cov := p.Selection.Coverage; cov > 0 && !math.IsInf(cov, 1) {
		for s := range aggSlots {
			aggSlots[s] /= cov
		}
	}
	res.TotalInsts = p.TotalInsts
	res.IntervalSize = p.Interval
	res.NumPoints = p.NumSimPoints()
	res.Coverage = p.Selection.Coverage
	res.K = p.Selection.K
	res.Stats = agg
	res.Power = rep
	res.Slots = aggSlots
	res.Points = points
	res.DetailedInsts = detailed
	return warmShare, nil
}

// warmTail is the detailed end of a functionally warmed warm-up: 32 times
// the µop window (ROB plus fetch buffer), so the pipeline, the MSHRs and
// the recently touched lines' order reach the tick kernel's steady state
// before the measured interval. The tail sweep behind the factor is in
// EXPERIMENTS.md ("Functional warming"): 16 windows left one short
// interval 2.7 % off its detailed warm-up, 32 left every point within
// 0.4 %.
func warmTail(cfg boom.Config) uint64 {
	return 32 * uint64(cfg.RobEntries+cfg.FetchBufferEntries)
}

// RunFull executes the entire workload on the detailed model (the
// baseline the SimPoint methodology replaces): the point path's detailed
// run from the program's entry, with no warm-up, to its end. Cancellation
// is checked at interval boundaries of the detailed run.
func (r *Runner) RunFull(ctx context.Context, w *workloads.Workload, cfg boom.Config) (*Result, error) {
	defer r.flowLap()()

	var key artifact.Key
	if r.cache != nil {
		key = fullKey(w, cfg, r.fc.Lib)
	}
	res := &Result{
		Workload:   w.Name,
		Suite:      w.Suite,
		ConfigName: cfg.Name,
		Mode:       "full",
	}
	cost, err := r.stageCached(key,
		func(payload []byte) error { return decodeResultPayload(payload, res, cfg.IntIssueSlots) },
		func() error {
			entry, err := w.Entry()
			if err != nil {
				return err
			}
			mctx, cancel := r.stageCtx(ctx)
			defer cancel()
			scratch := r.takeScratch()
			defer r.giveScratch(scratch)
			ran, _, err := r.runDetailed(mctx, scratch, w, cfg, "", entry, 0, 0)
			if err != nil {
				return err
			}
			st := scratch.core.Stats()
			est := power.NewEstimator(cfg, r.fc.Lib)
			est.SetMetrics(r.reg)
			endStage := r.stage(StageEstimate)
			rep, err := est.Estimate(st)
			endStage()
			if err != nil {
				return &StageError{Stage: StageEstimate, Workload: w.Name, Config: cfg.Name, Err: err}
			}
			res.TotalInsts = st.Insts
			res.IntervalSize = w.IntervalSize
			res.Stats = st
			res.Power = rep
			res.Slots = est.SlotPower(st)
			res.DetailedInsts = ran
			return nil
		},
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, w.Name, cfg.Name, err)
	}
	res.MeasureWallNS, res.TickWallNS = cost, cost
	return res, nil
}

// runDetailed is the flow's one detailed run, a simulation point's and a
// full run's alike, on the worker slot's scratch s. It restores the start
// checkpoint — a selected interval's, or the program's entry
// (Workload.Entry) — into the slot's functional CPU, attaching the
// workload's shared text window, Resets the slot's timing core to cfg,
// arms it for this cell, and warms it over warm instructions: functionally
// up to the last warmTail under a proportional warm-up, detailed
// otherwise. It then runs n instructions, or, when n is 0, the program to
// its end one interval at a time with ctx checked before each; a CPU that
// halted must pass the exit check. It returns the instructions the
// detailed model ran, warm-up included, and the wall-clock of functional
// warming. Every error is a *StageError.
func (r *Runner) runDetailed(ctx context.Context, s *pointScratch, w *workloads.Workload, cfg boom.Config,
	policy string, start *ckpt.Checkpoint, warm, n uint64) (detailed uint64, warmNS int64, err error) {
	serr := func(stage string, err error) error {
		return &StageError{Stage: stage, Workload: w.Name, Config: cfg.Name, Err: err}
	}
	endStage := r.stage(StageWarmup)
	cpu, c := &s.cpu, &s.core
	prog, err := w.Program()
	if err == nil {
		cpu.AttachText(prog)
		start.Restore(cpu)
		err = c.Reset(cfg)
	}
	if err == nil {
		c.SetMetrics(r.reg)
		c.SetFaultInjector(r.inj, w.Name, cfg.Name)
		c.CheckInvariants(checkInvariants)
	}
	s.trace = traceSource{cpu: cpu}
	ts := &s.trace
	if err == nil && warm > 0 {
		detailed = warm
		if policy == sampling.WarmupProportional {
			detailed = min(warm, warmTail(cfg))
			t0 := time.Now()
			_, err = c.Warm(ts, warm-detailed)
			warmNS = time.Since(t0).Nanoseconds()
		}
		if err == nil {
			_, err = c.RunSource(ts, detailed)
		}
		if err == nil {
			c.ResetStats() // a Reset core's counters are fresh already
		}
	}
	endStage()
	if err != nil {
		return 0, warmNS, serr(StageWarmup, err)
	}

	endStage = r.stage(StageMeasure)
	chunk, whole := n, n == 0
	if whole {
		if chunk = uint64(w.IntervalSize); chunk == 0 {
			chunk = 1 << 20
		}
	}
	for {
		if whole {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		var ran uint64
		ran, err = c.RunSource(ts, chunk)
		detailed += ran
		if err == nil {
			err = ts.err
		}
		if err != nil || !whole || ran < chunk {
			break
		}
	}
	endStage()
	if err == nil && cpu.Halted {
		err = checkExit(w, cpu)
	}
	if err != nil {
		return 0, warmNS, serr(StageMeasure, err)
	}
	return detailed, warmNS, nil
}

// checkExit is the flow's end-to-end oracle: a program that ran to its
// halt must leave the workload's Go reference value in a0. A mismatch is
// deterministic (the assembler, the functional simulator or the kernel
// disagrees with the reference), so it is never retried.
func checkExit(w *workloads.Workload, cpu *sim.CPU) error {
	if got, want := uint64(cpu.Exit), w.Checksum(); got != want {
		return fmt.Errorf("workload %s exited with %#x, reference checksum %#x", w.Name, got, want)
	}
	return nil
}

// pass is one functional execution of a workload from its entry, its
// memory marked (mem.Memory.Mark) at every candidate capture point it
// reached: capturePoint(i) for each interval i. A selected interval's
// checkpoint is its capture point's registers and memory image.
type pass struct {
	cpu   *sim.CPU
	insts int64 // instructions executed
	// marks holds the registers at each mark, one slab, Mem unset; their
	// InstRet, the mark's capture point, strictly increases.
	marks []ckpt.Checkpoint
}

// capturePoint is the instruction count where interval iv's checkpoint is
// taken: warmup instructions before the interval starts, clamped at
// program start.
func capturePoint(iv, interval, warmup int64) int64 {
	return max(0, iv*interval-warmup)
}

// runPass executes w until it halts or, when until ≥ 0, until the capture
// point until is marked, with ctx checked between calls into the CPU. Each
// call stops at the next interval boundary or capture point, whichever
// comes first. bp, when non-nil, counts every basic-block run the pass
// retires (and mp, when non-nil, every instruction and memory reference):
// the profile stage's profilers. Since no call crosses an interval
// boundary, neither does a run. Without them the pass only executes.
func (r *Runner) runPass(ctx context.Context, w *workloads.Workload, interval, warmup, until int64,
	bp *bbv.Profiler, mp *mav.Profiler) (*pass, error) {
	cpu, err := w.NewCPU()
	if err != nil {
		return nil, err
	}
	cpu.SetMetrics(r.reg)
	cpu.Mem.Record()
	ps := &pass{cpu: cpu}
	observe := func(bs []sim.Block, refs []sim.MemRef) {
		bp.ObserveBlocks(bs)
		if mp != nil {
			mp.ObserveBlocks(bs, refs)
		}
	}
	// Intervals 1 … warmup/interval capture at program start like interval
	// 0, so the loop skips them: capture points strictly increase.
	for iv := int64(0); ; iv = max(iv+1, warmup/interval+1) {
		at := capturePoint(iv, interval, warmup)
		for ps.insts < at && !cpu.Halted {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			step := min(at, (ps.insts/interval+1)*interval) - ps.insts
			var ran int64
			if bp != nil {
				ran, err = cpu.RunBlocks(step, mp != nil, observe)
			} else {
				ran, err = cpu.Run(step)
			}
			ps.insts += ran
			if err != nil {
				return nil, err
			}
			if ran == 0 && !cpu.Halted {
				return nil, fmt.Errorf("no forward progress (did not halt)")
			}
		}
		if cpu.Halted {
			return ps, nil
		}
		ps.marks = append(ps.marks, ckpt.Checkpoint{PC: cpu.PC, X: cpu.X, F: cpu.F, InstRet: cpu.InstRet})
		cpu.Mem.Mark()
		if until >= 0 && at >= until {
			return ps, nil
		}
	}
}

// shells are the checkpoints of sel's points as far as the selection, the
// interval length and the warm-up place them: InstRet at the point's
// capture point, Interval and Weight the selected point's. The profile
// pass (pass.fill) or the checkpoint payload (decodeCkptPayload) fills in
// the rest. warmups are what each leaves before its interval,
// Interval·interval − InstRet.
func shells(sel *simpoint.Result, interval, warmup int64) (cks []*ckpt.Checkpoint, warmups []int64) {
	cks = make([]*ckpt.Checkpoint, len(sel.Selected))
	warmups = make([]int64, len(sel.Selected))
	for i, pt := range sel.Selected {
		iv := int64(pt.Interval)
		at := capturePoint(iv, interval, warmup)
		cks[i] = &ckpt.Checkpoint{InstRet: uint64(at), Interval: iv, Weight: pt.Weight}
		warmups[i] = iv*interval - at
	}
	return cks, warmups
}

// fill sets each shell's registers and image from its capture point's
// mark. A capture point with no mark is an error, never a checkpoint taken
// elsewhere: the program halted before it.
func (ps *pass) fill(cks []*ckpt.Checkpoint) error {
	for _, k := range cks {
		j, ok := slices.BinarySearchFunc(ps.marks, k.InstRet, func(m ckpt.Checkpoint, at uint64) int {
			return cmp.Compare(m.InstRet, at)
		})
		if !ok {
			return fmt.Errorf("interval %d: no mark at its capture point %d (the pass ran %d instructions)", k.Interval, k.InstRet, ps.insts)
		}
		m := &ps.marks[j]
		k.PC, k.X, k.F, k.Mem = m.PC, m.X, m.F, ps.cpu.Mem.Image(j)
	}
	return nil
}
