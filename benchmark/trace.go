package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The traced pass. End-to-end metrics are measured with tracing off; this
// separate pass explains them. For each workload it runs one untraced
// repetition, one with a metrics registry handed to the engine (the
// difference between the two is the tracing overhead), and then replays
// the workload's cells layer by layer from this package, with a span
// around every call into a layer's public API. Spans stay in memory until
// the pass ends; the per-layer metrics and the sweep-cold budget are
// computed from them then.

// span is one timed call into a layer. Its name is "<layer>.<what>".
type span struct {
	name   string
	parent int // index of the causing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer records spans against one clock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span caused by parent and returns its index.
func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) stop(id int) time.Duration {
	t.spans[id].end = time.Since(t.t0)
	return t.spans[id].end - t.spans[id].start
}

// time runs fn inside a span.
func (t *tracer) time(parent int, name string, fn func()) time.Duration {
	id := t.start(parent, name)
	fn()
	return t.stop(id)
}

// total sums the spans of one name under root, and counts them.
func (t *tracer) total(root int, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for i := range t.spans {
		if t.spans[i].name == name && t.under(i, root) {
			d += t.spans[i].end - t.spans[i].start
			n++
		}
	}
	return d, n
}

func (t *tracer) under(i, root int) bool {
	for ; i >= 0; i = t.spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}

func (t *tracer) ms(root int, name string) float64 {
	d, _ := t.total(root, name)
	return float64(d.Nanoseconds()) / 1e6
}

// mean is the mean span duration in nanoseconds.
func (t *tracer) mean(root int, name string) float64 {
	d, n := t.total(root, name)
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// layerMetrics is per-layer metric name → value for one workload.
type layerMetrics map[string]float64

// registryCounts copies the counts the engine publishes through the
// registries it was handed.
func registryCounts(lm layerMetrics, regs ...*metrics.Registry) {
	sum := func(name string) float64 {
		var n int64
		for _, r := range regs {
			n += r.Counter(name).Value()
		}
		return float64(n)
	}
	lm["sim.insts"] = sum("sim.insts")
	lm["boom.cycles"] = sum("boom.cycles")
	lm["boom.retired"] = sum("boom.retired")
	lm["artifact.hits"] = sum("artifact.hit")
	lm["artifact.misses"] = sum("artifact.miss")
	lm["artifact.evictions"] = sum("artifact.evict")
	lm["core.retries"] = sum("core.sweep.retries")
	var estNS, estN int64
	for _, r := range regs {
		s := r.Histogram("power.estimate_ns").Summary()
		estNS += s.Sum
		estN += s.Count
	}
	if estN > 0 {
		lm["power.estimate_ns"] = float64(estNS) / float64(estN)
	}
}

// simulatedCounts derives the exact simulated quantities from results.
// They must not move at all under a change that only alters host speed.
func simulatedCounts(lm layerMetrics, cells []cellResult, profiles map[string]*core.Profile) {
	sorted := append([]cellResult(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].cfg != sorted[j].cfg {
			return sorted[i].cfg < sorted[j].cfg
		}
		return sorted[i].wl < sorted[j].wl
	})
	ipc := map[string][]float64{}
	var mw []float64
	var insts, mispredicts, dmisses uint64
	for _, c := range sorted {
		base := baseConfig(c.cfg)
		ipc[base] = append(ipc[base], c.res.IPC())
		mw = append(mw, c.res.TotalPowerMW())
		insts += c.res.Stats.Insts
		mispredicts += c.res.Stats.Mispredicts
		dmisses += c.res.Stats.DCacheMisses
	}
	for base, xs := range ipc {
		lm["boom.ipc_geomean."+base] = geomean(xs)
	}
	lm["power.tile_mw_geomean"] = geomean(mw)
	if insts > 0 {
		lm["boom.branch_mpki"] = 1000 * float64(mispredicts) / float64(insts)
		lm["boom.dcache_mpki"] = 1000 * float64(dmisses) / float64(insts)
	}
	for _, p := range profiles {
		lm["bbv.vectors"] += float64(len(p.Vectors))
		lm["simpoint.points"] += float64(p.NumSimPoints())
		lm["simpoint.kmeans_iters"] += float64(p.Selection.Stats.Iterations)
	}
}

// parUtil is the sweep workers' busy share: Σ busy / (wall × j).
func parUtil(reg *metrics.Registry, j int, wall time.Duration) float64 {
	var busy int64
	for wk := 0; wk < j; wk++ {
		busy += reg.Counter(fmt.Sprintf("core.sweep.worker.%02d.busy_ns", wk)).Value()
	}
	if wall <= 0 {
		return 0
	}
	return float64(busy) / (float64(wall.Nanoseconds()) * float64(j))
}

// executeTrace makes the traced pass over the selected workloads.
func executeTrace(e *env, ws []workload, w io.Writer) (int, error) {
	line := driverLine{Metrics: map[string]metricJSON{}}
	tr := newTracer()
	single := len(ws) == 1
	for _, wl := range ws {
		lm, reps, err := traceWorkload(e, wl, tr)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "\n%s — traced pass (j=1 replay; %d spans so far)\n", wl.name(), len(tr.spans))
		if d := wl.degenerate(); d != "" {
			fmt.Fprintf(w, "  DEGENERATE: %s\n", d)
		}
		for _, rp := range reps {
			line.Attempted += rp.out.ops
			line.Failed += rp.out.failed
			for _, n := range rp.out.notes {
				fmt.Fprintf(w, "  FAILED: %s\n", n)
			}
		}
		for _, d := range tracedDefs() {
			v := finiteOrZero(lm[d.name])
			fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.name, v, d.unit)
			key := d.name
			if !single {
				key = wl.name() + "/" + d.name
			}
			line.Metrics[key] = metricJSON{v, d.unit}
		}
		if b, ok := lm.budget(); ok {
			fmt.Fprint(w, b)
		}
	}
	return finish(w, e, line), nil
}

// traceWorkload runs one workload's traced pass: an untraced repetition, a
// repetition with a registry handed to the engine followed by the layer
// replay, and a second untraced repetition. The tracing overhead is taken
// against the better of the two untraced ones, so the cold start of the
// first does not read as negative overhead.
func traceWorkload(e *env, wl workload, tr *tracer) (layerMetrics, []*rep, error) {
	first, err := runRep(e, wl, 0)
	if err != nil {
		return nil, nil, err
	}
	lm := layerMetrics{}
	traced, err := tracedRep(wl, tr, lm)
	if err != nil {
		return nil, nil, err
	}
	second, err := runRep(e, wl, 0)
	if err != nil {
		return nil, nil, err
	}
	untraced := &result{reps: []*rep{first, second}}
	for _, d := range ungated {
		if vals := untraced.series(d.name); len(vals) > 0 {
			lm[d.name] = summarize(d, vals).value
		}
	}
	best := math.Min(first.wallS, second.wallS)
	lm["trace.overhead_pct"] = 100 * (traced.wallS - best) / best
	lm["untraced_wall_ms"] = 1e3 * best
	if local := lm["local_sweep_s"]; local > 0 { // fabric-loopback's in-process reference
		lm["fabric.overhead_pct"] = 100 * (1 - local/best)
	}
	return lm, []*rep{first, traced, second}, nil
}

// tracedRep is the registry-attached repetition and, while its caches and
// servers still stand, the workload's layer replay.
func tracedRep(wl workload, tr *tracer, lm layerMetrics) (*rep, error) {
	if f, ok := wl.(*fabricWL); ok {
		f.probe = &fabricProbe{}
		defer func() { f.probe = nil }()
	}
	defer wl.teardown()
	runtime.GC()
	reg := metrics.NewRegistry()
	if err := wl.setup(0, reg); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", wl.name(), err)
	}
	// As in runRep: the CPU count changes between set-up and the timed
	// region, so the traced and untraced regions start from the same state.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs()))
	var tm timer
	out, err := wl.run(&tm)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name(), err)
	}
	traced := tm.rep(out)

	registryCounts(lm, reg)
	simulatedCounts(lm, out.cells, out.profiles)
	out.profiles = nil
	lm["traced_wall_ms"] = 1e3 * traced.wallS
	if s, ok := wl.(*sweepWL); ok {
		lm["core.par_util"] = parUtil(reg, s.par, tm.wall)
	}
	// At -j 1 the engine's own "flow" span is the sum of its Profile and Run
	// calls, taken inside the very Sweep that tm timed: what is left of the
	// wall-clock is the sweep executor's (task queue, journal, supervision,
	// workload build).
	if flow := reg.Span("flow").DurationNS(); wl.procs() == 1 && flow > 0 {
		lm["core.sweep_self_pct"] = 100 * float64(tm.wall.Nanoseconds()-flow) / float64(tm.wall.Nanoseconds())
	}
	if lt, ok := wl.(layerTracer); ok {
		if err := lt.traceLayers(tr, lm, traced); err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", wl.name(), err)
		}
	}
	return traced, nil
}

// budget renders the host-time budget of a replayed campaign. The layer
// rows are measured spans and are set against the Runner calls timed beside
// them in the same loop, so "layers" is how much of the Runner's time the
// spans explain. Core self time is printed apart, and flagged when the
// replay ran slower than the Runner it re-enacts: then the host moved more
// between the two than core spends.
func (lm layerMetrics) budget() (string, bool) {
	runner, ok := lm["budget.runner_ms"]
	if !ok || runner <= 0 {
		return "", false
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  budget, as shares of the Runner calls the replay re-enacts (build + Profile + Run, %.1f ms):\n", runner)
	var layers float64
	for _, layer := range []string{"asm", "sim", "bbv", "simpoint", "ckpt", "boom", "power", "artifact"} {
		ms := lm["budget."+layer+"_ms"]
		layers += ms
		fmt.Fprintf(&sb, "    %-10s %10.1f ms %6.1f%%\n", layer, ms, 100*ms/runner)
	}
	fmt.Fprintf(&sb, "    %-10s %10.1f ms %6.1f%%  <- coverage: measured layer spans only\n", "layers", layers, 100*layers/runner)
	self := lm["budget.core_self_ms"]
	flag := ""
	if self < 0 {
		flag = "  UNRESOLVED: the replay ran slower than the Runner; core's self time is below this host's noise"
	}
	fmt.Fprintf(&sb, "    %-10s %10.1f ms %6.1f%%  (Profile + Run beyond the layer calls)%s\n", "core self", self, 100*self/runner, flag)
	traced, untraced := lm["traced_wall_ms"], lm["untraced_wall_ms"]
	fmt.Fprintf(&sb, "    sweep self %.1f%% of the traced Sweep (wall less the engine's own Profile + Run spans, same run)\n", lm["core.sweep_self_pct"])
	fmt.Fprintf(&sb, "    replayed Runner calls %.1f ms, traced Sweep %.1f ms (%+.1f%%), untraced wall_s %.1f ms (%+.1f%%)",
		runner, traced, 100*(runner-traced)/traced, untraced, 100*(runner-untraced)/untraced)
	if math.Abs(runner-traced) > 0.1*traced {
		sb.WriteString("  HOST MOVED: read the shares, not the milliseconds")
	}
	sb.WriteString("\n")
	return sb.String(), true
}
