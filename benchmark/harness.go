package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// size is how much of each campaign runs. fabric-loopback is always
// ScaleTiny (the point is the wire); scale is that of the other five.
type size struct {
	scale     workloads.Scale
	names     []string      // sweep workloads
	configs   []boom.Config // sweep design points
	wire      []string      // fabric-loopback's workloads
	dsePoints int           // design points per DSE campaign
	full      []string      // full-detail workloads
	reruns    int           // sweep-warm reruns per repetition
	resubmits int           // fabric-loopback re-POSTs per repetition
	setups    int           // samples taken of a cheap set-up (see runRep)
}

// fullSize is the benchmark as specified: what a user of the flow waits
// for. Three sweep-warm repetitions pool 42 rerun latencies, which keeps
// ten beyond the reported p75. The full-detail set spans high IPC (sha) to
// low IPC (tarfind): host cost tracks simulated cycles, not instructions.
func fullSize() size {
	return size{
		scale:     workloads.ScaleDefault,
		names:     workloads.Names(),
		configs:   boom.Configs(),
		wire:      workloads.Names(),
		dsePoints: 32,
		full:      []string{"sha", "qsort", "matmult", "tarfind"},
		reruns:    14,
		resubmits: 30,
		setups:    9,
	}
}

// driverSize is what BENCHMARK.json runs: the same ScaleDefault intervals,
// with each campaign cut by workloads and design points — never by
// interval length — until set-up plus timed region take 2–3 s on a quiet
// host. Three repetitions then fit in the driver's clock even in a phase
// where the hypervisor leaves the VM half its CPU time, and the host-time
// mix stays the one users wait for: functional execution + BBV about half
// of a cold sweep, the tick kernel the other half, checkpoints a percent
// (at ScaleTiny checkpoints were a quarter and functional execution a
// tenth). The three sweep workloads span IPC 0.8 (qsort) to 3.5 (sha), and
// Runner.Profile of them costs 0.8 of what Runner.Run of their cells does,
// as it does for the eleven. sha and qsort are also the DSE pair.
func driverSize() size {
	s := fullSize()
	s.names = []string{"qsort", "bitcount", "sha"}
	// The wire campaign is the paper's less tarfind, which at ScaleTiny is
	// more than half of the eleven's host time: 40 cells in ~1.3 s.
	s.wire = nil
	for _, n := range workloads.Names() {
		if n != "tarfind" {
			s.wire = append(s.wire, n)
		}
	}
	s.dsePoints = 8
	s.full = []string{"sha"}
	s.reruns = 40 // a rerun of the three-workload campaign takes ~17 ms
	return s
}

// smokeSize is the tests' sliver: every code path in about a second.
func smokeSize() size {
	return size{
		scale:     workloads.ScaleTiny,
		names:     []string{"fft", "sha"},
		configs:   []boom.Config{boom.MediumBOOM()},
		wire:      []string{"fft", "sha"},
		dsePoints: 2,
		full:      []string{"fft", "sha"},
		reruns:    2,
		resubmits: 2,
		setups:    1,
	}
}

// env is what one invocation fixes for every workload.
type env struct {
	size    size
	seed    int64
	nproc   int
	j       int // worker budget of the parallel workloads: min(nproc, 4)
	workDir string
	golden  *golden
	tmpSeq  int
	// started and steal0 are the clock and the host's stolen CPU time when
	// the run began (see printSteal).
	started time.Time
	steal0  time.Duration
}

// tempDir returns a fresh directory under the invocation's work dir, which
// lives inside the checkout so the benchmark writes nowhere else.
func (e *env) tempDir(prefix string) (string, error) {
	e.tmpSeq++
	dir := filepath.Join(e.workDir, fmt.Sprintf("%s-%d", prefix, e.tmpSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// rng derives the generator for one repetition: the seed fixes the inputs
// of the whole run, and every repetition draws its own campaign order so a
// run's median is taken over several orders rather than one.
func (e *env) rng(rep int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(rep)))
}

// timer brackets a timed region: a forced GC so one region does not pay
// for its predecessor's garbage, then wall clock, process CPU time and
// allocation deltas.
type timer struct {
	t0      time.Time
	c0      time.Duration
	m0      runtime.MemStats
	wall    time.Duration
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
}

func (t *timer) begin() {
	runtime.GC()
	runtime.ReadMemStats(&t.m0)
	t.c0 = processCPU()
	t.t0 = time.Now()
}

func (t *timer) end() {
	t.wall = time.Since(t.t0)
	t.cpu = processCPU() - t.c0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.bytes = m.TotalAlloc - t.m0.TotalAlloc
	t.mallocs = m.Mallocs - t.m0.Mallocs
}

// processCPU is the user + system CPU time the process has used, every
// thread included. The kernel keeps time the hypervisor took from the
// virtual CPUs out of it, which the wall clock cannot do.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0 // cpu_s reads 0 where the platform keeps no such clock
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is what one repetition's timed region produced.
type outcome struct {
	ops    int      // cells or requests attempted
	failed int      // of which failed: failed cell, digest mismatch, non-2xx, missing result
	notes  []string // one line per failure
	insts  uint64   // detailed-model instructions (warm-up + measured) the results stand for
	// speedup is the SimPoint flow's detailed-instruction reduction.
	speedup float64
	// extra holds the workload-specific metrics with one value per
	// repetition; samples holds the raw latencies of the pooled ones.
	extra   map[string]float64
	samples map[string][]float64
	// cells and profiles are the results behind the simulated counts of
	// the traced pass (nil when results only crossed the wire as JSON).
	// Profiles hold every checkpoint's memory image, so only the traced
	// pass keeps them, and only until it has counted them.
	cells    []cellResult
	profiles map[string]*core.Profile
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one of the six campaigns. setup prepares a repetition —
// everything between "campaign chosen" and "campaign started", Runner
// construction included, so work a later change moves out of the timed
// region shows in setup_s; run brackets its own timed region with tm so
// work that belongs to neither (verification, the fabric re-POSTs) stays
// out of wall_s. reg is nil with tracing off; with tracing on it is handed
// to the engine through WithMetrics / Config.Registry.
type workload interface {
	name() string
	why() string
	// degenerate reports why the host cannot run this workload as meant
	// ("" when it can).
	degenerate() string
	// procs is how many CPUs the timed region is sized to; it runs with
	// GOMAXPROCS set to that. For the -j 1 workloads this is 1: left on two
	// CPUs, the concurrent collector's use of the idle one was the largest
	// noise source on the reference host (12 % interquartile spread of
	// dse-cold wall_s between invocations, against 1.5 % on one CPU), and
	// on one CPU wall_s is the campaign's whole CPU cost, collector included.
	procs() int
	setup(rep int, reg *metrics.Registry) error
	run(tm *timer) (*outcome, error)
	teardown()
}

// layerTracer is implemented by workloads whose traced pass replays their
// cells layer by layer (see trace.go).
type layerTracer interface {
	traceLayers(tr *tracer, lm layerMetrics, traced *rep) error
}

// rep is one measured repetition.
type rep struct {
	setupS []float64 // one sample per set-up performed (see runRep)
	wallS  float64
	cpuS   float64
	bytes  uint64
	allocs uint64
	out    *outcome
}

// values flattens a repetition into metric name → value.
func (r *rep) values() map[string]float64 {
	v := map[string]float64{
		"wall_s":               r.wallS,
		"cpu_s":                r.cpuS,
		"detailed_minst_per_s": float64(r.out.insts) / 1e6 / r.wallS,
		"alloc_mb":             float64(r.bytes) / 1e6,
		"allocs_k":             float64(r.allocs) / 1e3,
		"speedup_x":            r.out.speedup,
	}
	for k, x := range r.out.extra {
		v[k] = x
	}
	return v
}

// cheapSetup is the set-up time below which one sample per repetition is
// too few to report: such a set-up (milliseconds of assembly, directory
// creation and Runner construction) is performed size.setups times, torn
// down in between, and setup_s is taken over all of them.
const cheapSetup = 250 * time.Millisecond

// runRep performs one untraced repetition: timed set-up, the workload's own
// timed region, teardown.
func runRep(e *env, w workload, n int) (*rep, error) {
	defer w.teardown()
	var setups []float64
	for {
		runtime.GC() // set-up must not pay for earlier garbage
		t0 := time.Now()
		if err := w.setup(n, nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		if d >= cheapSetup || len(setups) >= e.size.setups {
			break
		}
		w.teardown()
	}
	var tm timer
	prev := runtime.GOMAXPROCS(w.procs())
	out, err := w.run(&tm)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	out.profiles = nil
	rp := tm.rep(out)
	rp.setupS = setups
	return rp, nil
}

// rep packages a finished timed region with what it produced.
func (t *timer) rep(out *outcome) *rep {
	return &rep{wallS: t.wall.Seconds(), cpuS: t.cpu.Seconds(), bytes: t.bytes, allocs: t.mallocs, out: out}
}

// summary is one metric's reported value and the spread beside it.
type summary struct {
	n          int
	value      float64 // the median, the best repetition, or a pooled quantile
	q1, q3     float64
	min, max   float64
	unresolved bool
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method), so the median of two values is their mean.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize reports a metric's value and quartiles. A metric whose own
// interquartile spread exceeds its bound cannot resolve a regression of
// that size and is marked unresolved.
func summarize(def metricDef, vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := 0.5
	if def.pooled > 0 {
		q = def.pooled
	}
	sm := summary{
		n:     len(s),
		value: quantile(s, q),
		q1:    quantile(s, 0.25),
		q3:    quantile(s, 0.75),
		min:   s[0],
		max:   s[len(s)-1],
	}
	if def.best {
		sm.value = sm.min
		if def.better == "higher" {
			sm.value = sm.max
		}
	}
	// A pooled metric's quartiles describe the latency distribution, not
	// the uncertainty of the reported quantile, so they decide nothing.
	if !def.exact && def.pooled == 0 && def.bound > 0 && sm.value != 0 {
		sm.unresolved = (sm.q3-sm.q1)/math.Abs(sm.value) > def.bound
	}
	return sm
}

// result is one workload's untraced measurements.
type result struct {
	w        workload
	reps     []*rep
	elapsed  time.Duration // set-up + timed regions + verification
	measured time.Duration // timed regions only
}

// series is one metric's values over the run: one per repetition, or every
// raw sample for a pooled metric.
func (r *result) series(name string) []float64 {
	var out []float64
	for _, rp := range r.reps {
		if v, ok := rp.values()[name]; ok {
			out = append(out, v)
		}
		if name == "setup_s" {
			out = append(out, rp.setupS...)
		}
		out = append(out, rp.out.samples[name]...)
	}
	return out
}

func (r *result) totals() (ops, failed int, notes []string) {
	for _, rp := range r.reps {
		ops += rp.out.ops
		failed += rp.out.failed
		notes = append(notes, rp.out.notes...)
	}
	return
}

// wants reports whether a workload should run another repetition. With no
// time budget it runs exactly floor. With one it also keeps going until
// the budget is used (set-up included, so an expensive set-up cannot
// overrun the driver's clock) and until a fifth of the budget was spent
// inside timed regions (so a workload whose region is short next to its
// set-up still gets enough samples) — but never past 2.5 budgets.
func (r *result) wants(floor int, budget time.Duration) bool {
	if len(r.reps) < floor {
		return true
	}
	if budget == 0 || r.elapsed >= 5*budget/2 {
		return false
	}
	return r.elapsed < budget || r.measured < budget/5
}

// measure runs the selected workloads round-robin — one repetition of
// each in turn, so drift in the host hits all of them alike. floor is
// minReps everywhere but in the package's tests.
func measure(e *env, ws []workload, floor int, budget time.Duration) ([]*result, error) {
	res := make([]*result, len(ws))
	for i, w := range ws {
		res[i] = &result{w: w}
	}
	for n := 0; ; n++ {
		ran := false
		for _, r := range res {
			if !r.wants(floor, budget) {
				continue
			}
			t0 := time.Now()
			rp, err := runRep(e, r.w, n)
			if err != nil {
				return nil, err
			}
			r.elapsed += time.Since(t0)
			r.measured += time.Duration(rp.wallS * float64(time.Second))
			r.reps = append(r.reps, rp)
			ran = true
		}
		if !ran {
			return res, nil
		}
	}
}

// minReps is how many repetitions every workload gets at the least; a time
// budget can only add to it. It is fixed because wall_s is the best
// repetition: the minimum over n falls as n grows, so runs with different
// floors would not be comparable.
const minReps = 3

// warmUp pays the process's lazy set-up before anything is timed: the
// smallest sweep there is — the shortest workload on one design point at
// ScaleTiny — through the whole flow.
func warmUp() error {
	camp := core.NewCampaign([]string{"matmult"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	_, err := newRunner(workloads.ScaleTiny, 1, "", nil).Sweep(context.Background(), camp)
	return err
}

// shuffled returns a permuted copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
