package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// cellResult is one measured (workload, design point) cell.
type cellResult struct {
	wl  string
	cfg string
	res *core.Result
}

// allWorkloads builds the six campaigns in their reporting order.
func allWorkloads(e *env) []workload {
	return []workload{
		&sweepWL{e: e, nm: "sweep-cold", par: 1,
			reason: "the paper campaign at -j 1 into an empty cache: functional profiling, checkpoint capture/restore, the tick kernel and the artifact write path"},
		&sweepWL{e: e, nm: "sweep-par", par: e.j,
			reason: "the same campaign on min(nproc,4) workers: the only workload where the sweep worker pool and shared slot budget do distinguishing work"},
		&warmWL{e: e},
		&dseWL{e: e},
		&fullWL{e: e},
		&fabricWL{e: e},
	}
}

// buildAll builds and assembles every workload a campaign names — the
// work every campaign's set-up shares, and what Runner.measure repeats per
// cell.
func buildAll(names []string, scale workloads.Scale) (map[string]*workloads.Workload, error) {
	out := map[string]*workloads.Workload{}
	for _, n := range names {
		w, err := workloads.Build(n, scale)
		if err != nil {
			return nil, err
		}
		if _, err := w.Program(); err != nil {
			return nil, err
		}
		out[n] = w
	}
	return out, nil
}

// sweepCells flattens a sweep into cells, recording every missing one.
func sweepCells(out *outcome, sw *core.Sweep) {
	for _, cfg := range sw.ConfigNames {
		for _, wl := range sw.Names {
			out.ops++
			res := sw.Results[cfg][wl]
			if res == nil || res.Stats == nil {
				out.fail("cell %s/%s: no result", cfg, wl)
				continue
			}
			out.cells = append(out.cells, cellResult{wl, cfg, res})
			out.insts += res.DetailedInsts
		}
	}
	out.speedup = sw.SpeedupOf().Speedup()
	out.profiles = sw.Profiles
}

// sweepKey names the pinned digest of one sweep campaign: the whole paper
// matrix is "sweep/<scale>", a cut of it also lists its axes in canonical
// order.
func sweepKey(c core.Campaign) string {
	key := "sweep/" + c.Scale.String()
	if len(c.Workloads) == len(workloads.Names()) && len(c.Configs) == len(boom.Configs()) {
		return key
	}
	return key + "/" + strings.Join(canonicalOrder(c.Workloads, workloads.Names()), ",") +
		"/" + strings.Join(canonicalOrder(c.ConfigNames(), configOrder()), ",")
}

// sweepCampaign is names × the size's design points (at full size the
// paper's 11 × 3) in the repetition's order.
func sweepCampaign(e *env, rep int, names []string, scale workloads.Scale) core.Campaign {
	rng := e.rng(rep)
	return core.NewCampaign(shuffled(rng, names), shuffled(rng, e.size.configs), scale)
}

func newRunner(scale workloads.Scale, par int, cacheDir string, reg *metrics.Registry, extra ...core.Option) *core.Runner {
	opts := []core.Option{core.WithScale(scale), core.WithParallelism(par)}
	if cacheDir != "" {
		opts = append(opts, core.WithCache(cacheDir))
	}
	if reg != nil {
		opts = append(opts, core.WithMetrics(reg))
	}
	return core.New(core.FlowConfigFor(scale), append(opts, extra...)...)
}

// ---- sweep-cold, sweep-par -------------------------------------------

type sweepWL struct {
	e      *env
	nm     string
	reason string
	par    int

	camp   core.Campaign
	cache  string
	runner *core.Runner
}

func (w *sweepWL) name() string { return w.nm }
func (w *sweepWL) why() string  { return w.reason }

func (w *sweepWL) procs() int { return w.par }

func (w *sweepWL) degenerate() string {
	if w.nm == "sweep-par" && w.par == 1 {
		return "1-CPU host: -j 1, identical to sweep-cold, not a parallel number"
	}
	return ""
}

func (w *sweepWL) setup(rep int, reg *metrics.Registry) error {
	w.camp = sweepCampaign(w.e, rep, w.e.size.names, w.e.size.scale)
	if _, err := buildAll(w.camp.Workloads, w.camp.Scale); err != nil {
		return err
	}
	var err error
	if w.cache, err = w.e.tempDir(w.nm); err != nil {
		return err
	}
	w.runner = newRunner(w.camp.Scale, w.par, w.cache, reg)
	return nil
}

func (w *sweepWL) run(tm *timer) (*outcome, error) {
	tm.begin()
	sw, err := w.runner.Sweep(context.Background(), w.camp)
	tm.end()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	sweepCells(out, sw)
	d, err := sweepDigest(sw)
	if err != nil {
		return nil, err
	}
	w.e.golden.check(out, sweepKey(w.camp), d)
	return out, nil
}

func (w *sweepWL) teardown() { os.RemoveAll(w.cache) }

// ---- sweep-warm -------------------------------------------------------

type warmWL struct {
	e     *env
	camp  core.Campaign
	cache string
	cold  string // digest of the populating sweep
	reg   *metrics.Registry
}

func (w *warmWL) name() string { return "sweep-warm" }
func (w *warmWL) why() string {
	return "back-to-back reruns of the paper campaign against a populated cache: artifact read, checksum, inflate, payload decode and journal do all the work; sim and boom do none"
}
func (w *warmWL) degenerate() string { return "" }
func (w *warmWL) procs() int         { return 1 }

// setup populates the cache with one cold sweep; that population is the
// cost a user pays before any rerun is warm, so it is set-up time.
func (w *warmWL) setup(rep int, reg *metrics.Registry) error {
	w.reg = reg
	w.camp = sweepCampaign(w.e, rep, w.e.size.names, w.e.size.scale)
	var err error
	if w.cache, err = w.e.tempDir("sweep-warm"); err != nil {
		return err
	}
	sw, err := newRunner(w.camp.Scale, w.e.j, w.cache, nil).Sweep(context.Background(), w.camp)
	if err != nil {
		return err
	}
	w.cold, err = sweepDigest(sw)
	return err
}

// run builds a fresh Runner per rerun inside the timed region: a warm rerun
// is a new process's worth of Runner against an old cache.
func (w *warmWL) run(tm *timer) (*outcome, error) {
	out := &outcome{}
	lat := make([]float64, 0, w.e.size.reruns)
	sweeps := make([]*core.Sweep, 0, w.e.size.reruns)
	tm.begin()
	for i := 0; i < w.e.size.reruns; i++ {
		t0 := time.Now()
		sw, err := newRunner(w.camp.Scale, 1, w.cache, w.reg).Sweep(context.Background(), w.camp)
		if err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if i > 0 {
			sw.Profiles = nil // drop the checkpoint images; verification needs results only
		}
		sweeps = append(sweeps, sw)
	}
	tm.end()
	for i, sw := range sweeps {
		d, err := sweepDigest(sw)
		if err != nil {
			return nil, err
		}
		if d != w.cold {
			out.fail("rerun %d: warm digest %s differs from the cold sweep's %s", i, d, w.cold)
		}
		if i == 0 {
			sweepCells(out, sw)
			w.e.golden.check(out, sweepKey(w.camp), d)
			continue
		}
		out.ops += w.camp.Cells()
		for _, perCfg := range sw.Results {
			for _, res := range perCfg {
				out.insts += res.DetailedInsts
			}
		}
	}
	out.samples = map[string][]float64{"rerun_ms_p50": lat, "rerun_ms_p75": lat}
	return out, nil
}

func (w *warmWL) teardown() { os.RemoveAll(w.cache) }

// ---- dse-cold ----------------------------------------------------------

// dseWorkloads pairs a high-IPC and a low-IPC benchmark, in the canonical
// order frontier reports are built in.
var dseWorkloads = []string{"sha", "qsort"}

// dseGrid is the fixed 64-point grid over LargeBOOM. Expansion sorts the
// axes by parameter name with the last varying fastest, so dcache-mshrs is
// the slowest axis: point i and point i+32 differ in MSHR count alone.
func dseGrid() ([]boom.Config, error) {
	return dse.Expand(dse.Spec{
		Base: "LargeBOOM",
		Axes: []dse.Axis{
			{Param: "rob", Values: []string{"64", "96", "128", "160"}},
			{Param: "int-iq", Values: []string{"16", "24", "32", "40"}},
			{Param: "predictor", Values: []string{"tage", "gshare"}},
			{Param: "dcache-mshrs", Values: []string{"2", "4"}},
		},
	})
}

type dseWL struct {
	e      *env
	rep    int
	names  []string
	runner *core.Runner
}

func (w *dseWL) name() string { return "dse-cold" }
func (w *dseWL) why() string {
	return "seed-sampled LargeBOOM design points x {sha, qsort}, no cache, -j 1: two profile chains feed many short checkpoint-restored cells, so per-point set-up and the tick kernel dominate"
}
func (w *dseWL) degenerate() string { return "" }
func (w *dseWL) procs() int         { return 1 }

func (w *dseWL) setup(rep int, reg *metrics.Registry) error {
	w.rep = rep
	w.names = shuffled(w.e.rng(rep), dseWorkloads)
	if _, err := buildAll(w.names, w.e.size.scale); err != nil {
		return err
	}
	w.runner = newRunner(w.e.size.scale, 1, "", reg)
	return nil
}

// sample draws the campaign's points: one MSHR count per (rob, int-iq,
// predictor) triple, picked by the seed alone so every repetition of a run
// measures the same points, then ordered by the repetition. Stratifying on
// the axis host time depends on least keeps the work per seed near
// constant, so the spread between seeds measures the host, not the draw.
// A campaign of fewer than 32 points takes the same triples at every seed:
// a prefix of one fixed shuffle of them.
func (w *dseWL) sample() ([]boom.Config, error) {
	grid, err := dseGrid()
	if err != nil {
		return nil, err
	}
	half := len(grid) / 2
	pick := w.e.rng(-1)
	pts := make([]boom.Config, half)
	for i := range pts {
		pts[i] = grid[i+half*pick.Intn(2)]
	}
	pts = shuffled(rand.New(rand.NewSource(0)), pts)[:w.e.size.dsePoints]
	return shuffled(w.e.rng(w.rep), pts), nil
}

func (w *dseWL) run(tm *timer) (*outcome, error) {
	scale := w.e.size.scale
	tm.begin()
	pts, err := w.sample()
	if err != nil {
		return nil, err
	}
	camp := core.NewCampaign(w.names, pts, scale)
	sw, err := w.runner.Sweep(context.Background(), camp)
	if err != nil {
		return nil, err
	}
	enc, err := dseReport(sw)
	tm.end()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	sweepCells(out, sw)
	for _, c := range out.cells {
		d, err := statsDigest(c.res.Stats)
		if err != nil {
			return nil, err
		}
		w.e.golden.check(out, fmt.Sprintf("dse-cell/%s/%s/%s", scale, c.cfg, c.wl), d)
	}
	if w.e.seed == 1 {
		w.e.golden.check(out, dseReportKey(scale, len(pts)), sha(enc))
	}
	return out, nil
}

// dseReportKey names the pinned frontier report of the seed-1 campaign of n
// points.
func dseReportKey(scale workloads.Scale, n int) string {
	return fmt.Sprintf("dse-report/%s/%d", scale, n)
}

// dseReport reduces a DSE sweep to its canonical frontier report. Cells
// are fed in a fixed (workload, design point) order so the bytes depend on
// which points were measured, never on the order they ran in.
func dseReport(sw *core.Sweep) ([]byte, error) {
	cfgs := append([]string(nil), sw.ConfigNames...)
	sort.Strings(cfgs)
	var cells []dse.Cell
	for _, wl := range dseWorkloads {
		for _, cfg := range cfgs {
			res := sw.Results[cfg][wl]
			if res == nil {
				continue
			}
			cells = append(cells, dse.Cell{
				Workload: wl, Config: cfg,
				IPC: res.IPC(), PowerMW: res.TotalPowerMW(), PerfPerWatt: res.PerfPerWatt(),
			})
		}
	}
	return dse.EncodeReport(&dse.Report{
		DesignPoints: len(cfgs),
		Workloads:    dse.Frontiers(cells),
	})
}

func (w *dseWL) teardown() {}

// ---- full-detailed -----------------------------------------------------

type fullWL struct {
	e      *env
	order  []string
	built  map[string]*workloads.Workload
	runner *core.Runner
	// SimPoint estimates taken during set-up, per sampling spec.
	legacy, recommended map[string]*core.Result
}

func (w *fullWL) name() string { return "full-detailed" }
func (w *fullWL) why() string {
	return "RunFull on MegaBOOM at -j 1: the baseline SimPoints replace — the same tick kernel on one long streamed trace with no checkpoint restore or per-point set-up"
}
func (w *fullWL) degenerate() string { return "" }
func (w *fullWL) procs() int         { return 1 }

// setup also takes the SimPoint estimates the accuracy metrics compare
// against the full runs: each workload under the legacy (zero) sampling
// spec and under sampling.Recommended().
func (w *fullWL) setup(rep int, reg *metrics.Registry) error {
	w.order = shuffled(w.e.rng(rep), w.e.size.full)
	var err error
	if w.built, err = buildAll(w.order, w.e.size.scale); err != nil {
		return err
	}
	if w.legacy, err = w.estimate(sampling.Spec{}); err != nil {
		return err
	}
	if w.recommended, err = w.estimate(sampling.Recommended()); err != nil {
		return err
	}
	w.runner = newRunner(w.e.size.scale, 1, "", reg)
	return nil
}

func (w *fullWL) estimate(spec sampling.Spec) (map[string]*core.Result, error) {
	r := newRunner(w.e.size.scale, 1, "", nil, core.WithSampling(spec))
	out := map[string]*core.Result{}
	for _, n := range w.order {
		p, err := r.Profile(context.Background(), w.built[n])
		if err != nil {
			return nil, err
		}
		if out[n], err = r.Run(context.Background(), p, boom.MegaBOOM()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *fullWL) run(tm *timer) (*outcome, error) {
	cfg := boom.MegaBOOM()
	out := &outcome{extra: map[string]float64{}}
	tm.begin()
	for _, n := range w.order {
		res, err := w.runner.RunFull(context.Background(), w.built[n], cfg)
		if err != nil {
			return nil, err
		}
		out.cells = append(out.cells, cellResult{n, cfg.Name, res})
	}
	tm.end()
	var full, detailed uint64
	for _, c := range out.cells {
		out.ops++
		out.insts += c.res.DetailedInsts
		d, err := statsDigest(c.res.Stats)
		if err != nil {
			return nil, err
		}
		w.e.golden.check(out, fmt.Sprintf("full/%s/%s/%s", w.e.size.scale, c.cfg, c.wl), d)
		full += w.legacy[c.wl].TotalInsts
		detailed += w.legacy[c.wl].DetailedInsts
	}
	out.speedup = float64(full) / float64(detailed)
	out.extra["cpi_err_pct.legacy"] = cpiErrPct(w.e.size.full, out.cells, w.legacy)
	out.extra["cpi_err_pct.recommended"] = cpiErrPct(w.e.size.full, out.cells, w.recommended)
	return out, nil
}

// cpiErrPct is the mean |CPI_simpoint − CPI_full| / CPI_full in percent,
// summed in the order of names so the floating-point result repeats exactly.
func cpiErrPct(names []string, full []cellResult, est map[string]*core.Result) float64 {
	byWL := map[string]*core.Result{}
	for _, c := range full {
		byWL[c.wl] = c.res
	}
	var sum float64
	for _, n := range names {
		ref := 1 / byWL[n].IPC()
		sum += math.Abs(1/est[n].IPC()-ref) / ref
	}
	return 100 * sum / float64(len(names))
}

func (w *fullWL) teardown() {}

// baseConfig strips a DSE point's "+param=value" suffix.
func baseConfig(name string) string {
	base, _, _ := strings.Cut(name, "+")
	return base
}
