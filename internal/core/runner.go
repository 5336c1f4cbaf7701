package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
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
// value is not usable. A Runner is safe for concurrent use: it holds only
// immutable configuration plus an optional metrics registry and artifact
// cache (both internally synchronized).
//
// Sweep runs under supervision: worker panics are recovered into
// *StageError (never crash the process), per-stage watchdogs bound runaway
// stages (WithStageTimeout), transient faults retry with exponential
// backoff (WithRetry), and failures can be collected instead of aborting
// the campaign (WithKeepGoing). With a cache attached, a killed or failed
// sweep is resumed by rerunning it: every finished stage is a cache hit.
type Runner struct {
	fc           FlowConfig
	scale        workloads.Scale
	sampling     sampling.Spec
	reg          *metrics.Registry
	par          int
	sem          chan struct{} // shared -j slot budget (see points.go)
	progress     func(string)
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
		scale: workloads.ScaleTiny,
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
	return r.profileWith(ctx, w, r.sampling, r.profileKeys(w, r.sampling), nil)
}

// effectiveSpec resolves which sampling spec governs a campaign: the
// campaign's own when set, else the Runner's (WithSampling). Everything
// spec-dependent — sweep profiling, the campaign fingerprint — goes
// through this one resolution so results and identities can never
// disagree.
func (r *Runner) effectiveSpec(c Campaign) sampling.Spec {
	if !c.Sampling.IsZero() {
		return c.Sampling
	}
	return r.sampling
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
// (artifact.Cache.Cost) and hand the stage itself to Profile.load; an entry
// that fails there is evicted and its stage runs as on any other miss.
func (r *Runner) profileWith(ctx context.Context, w *workloads.Workload, spec sampling.Spec,
	keys profileKeys, cells []artifact.Key) (*Profile, error) {
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
	// needBBV / needCkpt: the stage's cost is known, its payload unread.
	var needBBV, needCkpt bool

	// Stage 1: functional execution + BBV (and, under a bbv+mav spec, MAV)
	// profiling, one interval at a time.
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
				cpu, cerr := w.NewCPU()
				if cerr != nil {
					return cerr
				}
				cpu.SetMetrics(r.reg)
				profiler := bbv.NewProfiler(interval)
				observe := profiler.Observe
				var mavProf *mav.Profiler
				if spec.UseMAV() {
					// Both profilers count every retired instruction, so their
					// interval boundaries coincide and vector i of each stream
					// describes the same instructions.
					mavProf = mav.NewProfiler(interval)
					observe = func(rt *sim.Retired) {
						profiler.Observe(rt)
						mavProf.Observe(rt)
					}
				}
				var n int64
				for !cpu.Halted {
					if cerr := sctx.Err(); cerr != nil {
						return cerr
					}
					ran, rerr := cpu.RunTrace(interval, observe)
					n += ran
					if rerr != nil {
						return rerr
					}
					if ran == 0 && !cpu.Halted {
						return fmt.Errorf("no forward progress (did not halt)")
					}
				}
				profiler.Finish()
				p.Vectors, p.TotalInsts, p.NumBlocks = profiler.Vectors(), uint64(n), profiler.NumBlocks()
				if mavProf != nil {
					mavProf.Finish()
					p.MAVs = mavProf.Vectors()
					if len(p.MAVs) != len(p.Vectors) {
						return fmt.Errorf("profiler drift: %d MAV intervals for %d BBV intervals", len(p.MAVs), len(p.Vectors))
					}
				}
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
		c1, needBBV = stageCost(StageProfile, keys.bbv)
	}
	if !needBBV {
		if c1, err = bbvStage(ctx); err != nil {
			return nil, err
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
			if needBBV { // clustering needs the vectors after all
				if _, berr := bbvStage(ctx); berr != nil {
					return berr
				}
				needBBV = false
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
		return nil, wrapStage(StageSelect, w.Name, "", err)
	}
	sel := p.Selection

	// Stage 3: checkpoint creation. Checkpoints are taken WarmupInsts
	// before each simulation point (clamped at program start), in one
	// functional pass over the sorted capture points.
	ckptStage := func(ctx context.Context) (int64, error) {
		defer r.stage(StageCheckpoint)()
		cost, err := r.stageCached(keys.ckpt,
			func(payload []byte) error {
				k, wu, derr := decodeCkptPayload(payload, len(sel.Selected))
				if derr != nil {
					return derr
				}
				p.Checkpoints, p.WarmupInsts = k, wu
				return nil
			},
			func() error {
				sctx, cancel := r.stageCtx(ctx)
				defer cancel()
				type capturePoint struct {
					at       int64 // instruction count where the checkpoint is taken
					selIdx   int
					interval int64
				}
				caps := make([]capturePoint, len(sel.Selected))
				for i, pt := range sel.Selected {
					st := int64(pt.Interval) * interval
					at := st - warmup
					if at < 0 {
						at = 0
					}
					caps[i] = capturePoint{at: at, selIdx: i, interval: int64(pt.Interval)}
				}
				sort.Slice(caps, func(i, j int) bool { return caps[i].at < caps[j].at })

				cpu2, cerr := w.NewCPU()
				if cerr != nil {
					return cerr
				}
				cpu2.SetMetrics(r.reg)
				cks := make([]*ckpt.Checkpoint, len(caps))
				warmups := make([]int64, len(caps))
				var executed int64
				for _, cp := range caps {
					for executed < cp.at {
						if cerr := sctx.Err(); cerr != nil {
							return cerr
						}
						step := cp.at - executed
						if step > interval {
							step = interval
						}
						if _, rerr := cpu2.Run(step); rerr != nil {
							return rerr
						}
						executed += step
					}
					k := ckpt.Capture(cpu2)
					k.Interval = cp.interval
					k.Weight = sel.Selected[cp.selIdx].Weight
					cks[cp.selIdx] = k
					warmups[cp.selIdx] = cp.interval*interval - cp.at
				}
				p.Checkpoints, p.WarmupInsts = cks, warmups
				return nil
			},
			func() ([]byte, error) {
				return encodeCkptPayload(p.Checkpoints, p.WarmupInsts)
			})
		return cost, wrapStage(StageCheckpoint, w.Name, "", err)
	}
	var c3 int64
	if costOnly {
		c3, needCkpt = stageCost(StageCheckpoint, keys.ckpt)
	}
	if !needCkpt {
		if c3, err = ckptStage(ctx); err != nil {
			return nil, err
		}
	}
	p.WallNS = c1 + c2 + c3

	if needBBV || needCkpt {
		p.pending = func(ctx context.Context) error {
			if needBBV {
				if _, err := bbvStage(ctx); err != nil {
					return err
				}
				needBBV = false
			}
			if needCkpt {
				if _, err := ckptStage(ctx); err != nil {
					return err
				}
				needCkpt = false
			}
			return nil
		}
	}
	return p, nil
}

// Run executes steps 4–5 of the flow for one profiled workload on one
// configuration: restore every checkpoint, warm up, measure, and estimate
// power, aggregating by cluster weight. The context is checked between
// simulation points. With a cache attached, the whole measurement is one
// artifact keyed off the profile's chain.
func (r *Runner) Run(ctx context.Context, p *Profile, cfg boom.Config) (*Result, error) {
	var key artifact.Key
	if r.cache != nil && p.CacheKey != "" {
		key = measureKey(p.CacheKey, cfg, r.fc.Lib)
	}
	return r.run(ctx, p, cfg, key)
}

// run is Run under an already-derived measure key (zero: uncached); Sweep
// derives each cell's key once, for its probe and for this.
func (r *Runner) run(ctx context.Context, p *Profile, cfg boom.Config, key artifact.Key) (*Result, error) {
	defer r.flowLap()()

	res := &Result{
		Workload:   p.Workload.Name,
		Suite:      p.Workload.Suite,
		ConfigName: cfg.Name,
		Mode:       "simpoint",
	}
	cost, err := r.stageCached(key,
		func(payload []byte) error { return decodeResultPayload(payload, res, cfg.IntIssueSlots) },
		func() error {
			if err := p.load(ctx); err != nil {
				return err
			}
			return r.measure(ctx, p, cfg, res)
		},
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, p.Workload.Name, cfg.Name, err)
	}
	res.MeasureWallNS = cost
	return res, nil
}

// measure is the compute body of Run: warm up, measure and estimate every
// simulation point, filling res (everything but MeasureWallNS). res is
// only written after the full measurement succeeds, so a failed attempt
// never leaks partial state into a retry.
//
// Points are measured concurrently (see points.go): each restores its own
// checkpoint into a fresh CPU and a cold timing core, deposits its raw
// measurement into an index-addressed slot, and the floating-point
// reduction replays serially in checkpoint order — bit-identical to a
// serial loop at every parallelism level.
func (r *Runner) measure(ctx context.Context, p *Profile, cfg boom.Config, res *Result) error {
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
		return serr(StageMeasure, err)
	}

	est := power.NewEstimator(cfg, r.fc.Lib)
	est.SetMetrics(r.reg)

	prog, err := p.Workload.Program()
	if err != nil {
		return serr(StageWarmup, err)
	}

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
			pointNS.Observe(time.Since(t0).Nanoseconds())
		}()

		// Warm-up: restore the architectural checkpoint into a fresh
		// functional CPU and a cold timing core (the worker's own, Reset
		// after its first point) and prime caches and predictors.
		endStage := r.stage(StageWarmup)
		// The checkpoint supplies memory and registers; only the text
		// window (the workload's shared predecoded image) comes from the
		// program.
		cpu := sim.New()
		cpu.AttachText(prog)
		p.Checkpoints[i].Restore(cpu)
		core := scratch.core
		if core == nil {
			var nerr error
			if core, nerr = boom.New(cfg); nerr != nil {
				endStage()
				out.err = serr(StageWarmup, nerr)
				return
			}
			core.SetMetrics(r.reg)
			core.SetFaultInjector(r.inj, p.Workload.Name, cfg.Name)
			scratch.core = core
		} else {
			core.Reset()
		}
		ts := &traceSource{cpu: cpu}
		if warm := uint64(p.WarmupInsts[i]); warm > 0 {
			if _, rerr := core.Run(ts.next, warm); rerr != nil {
				endStage()
				out.err = serr(StageWarmup, rerr)
				return
			}
			out.detailed += warm
		}
		core.ResetStats()
		endStage()

		endStage = r.stage(StageMeasure)
		ran, rerr := core.Run(ts.next, uint64(p.Interval))
		endStage()
		if rerr != nil {
			out.err = serr(StageMeasure, rerr)
			return
		}
		if ts.err != nil {
			out.err = serr(StageMeasure, ts.err)
			return
		}
		out.detailed += ran
		st := core.Stats()

		endStage = r.stage(StageEstimate)
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
		return ferr
	}

	// Ordered reduce: replay the accumulation serially in checkpoint order.
	agg, aggSlots, points, detailed := foldPoints(&cfg, p.Selection, outs)

	endStage := r.stage(StageEstimate)
	rep, err := est.Estimate(agg)
	endStage()
	if err != nil {
		return serr(StageEstimate, err)
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
	return nil
}

// RunFull executes the entire workload on the detailed model (the
// baseline the SimPoint methodology replaces). Cancellation is checked at
// interval boundaries of the detailed run.
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
		func() error { return r.measureFull(ctx, w, cfg, res) },
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, w.Name, cfg.Name, err)
	}
	res.MeasureWallNS = cost
	return res, nil
}

// measureFull is the compute body of RunFull.
func (r *Runner) measureFull(ctx context.Context, w *workloads.Workload, cfg boom.Config, res *Result) error {
	serr := func(stage string, err error) error {
		return &StageError{Stage: stage, Workload: w.Name, Config: cfg.Name, Err: err}
	}
	mctx, cancel := r.stageCtx(ctx)
	defer cancel()
	cpu, err := w.NewCPU()
	if err != nil {
		return serr(StageMeasure, err)
	}
	core, err := boom.New(cfg)
	if err != nil {
		return serr(StageMeasure, err)
	}
	core.SetMetrics(r.reg)
	core.SetFaultInjector(r.inj, w.Name, cfg.Name)
	ts := &traceSource{cpu: cpu}

	endStage := r.stage(StageMeasure)
	chunk := uint64(w.IntervalSize)
	if chunk == 0 {
		chunk = 1 << 20
	}
	var ran uint64
	for {
		n, rerr := core.Run(ts.next, chunk)
		ran += n
		if rerr != nil {
			endStage()
			return serr(StageMeasure, rerr)
		}
		if ts.err != nil {
			endStage()
			return serr(StageMeasure, ts.err)
		}
		if n < chunk {
			break
		}
		if cerr := mctx.Err(); cerr != nil {
			endStage()
			return serr(StageMeasure, cerr)
		}
	}
	endStage()

	st := core.Stats()
	est := power.NewEstimator(cfg, r.fc.Lib)
	est.SetMetrics(r.reg)
	endStage = r.stage(StageEstimate)
	rep, err := est.Estimate(st)
	endStage()
	if err != nil {
		return serr(StageEstimate, err)
	}
	res.TotalInsts = st.Insts
	res.IntervalSize = w.IntervalSize
	res.Stats = st
	res.Power = rep
	res.Slots = est.SlotPower(st)
	res.DetailedInsts = ran
	return nil
}

// Validate runs both the SimPoint flow and the full detailed model for
// one workload (built at the Runner's scale) and compares their IPC.
func (r *Runner) Validate(ctx context.Context, name string, cfg boom.Config) (*Accuracy, error) {
	w, err := workloads.Build(name, r.scale)
	if err != nil {
		return nil, err
	}
	p, err := r.Profile(ctx, w)
	if err != nil {
		return nil, err
	}
	sp, err := r.Run(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	w2, err := workloads.Build(name, r.scale)
	if err != nil {
		return nil, err
	}
	full, err := r.RunFull(ctx, w2, cfg)
	if err != nil {
		return nil, err
	}
	return &Accuracy{
		Workload:    name,
		ConfigName:  cfg.Name,
		SimPointIPC: sp.IPC(),
		FullIPC:     full.IPC(),
	}, nil
}
