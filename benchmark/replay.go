package main

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mav"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// The layer replay: the benchmark's own re-enactment of what Runner.Sweep
// does for a campaign, one public call per span, so host time can be tied
// to the layer that spent it without instrumenting the engine. It runs
// Runner.Profile and Runner.Run for real (core.profile_s, core.run_s) and
// beside each performs the same work through the layers' own APIs; what
// the layers do not explain is the core package's self time.

// loadCPU is Workload.NewCPU without the assembly, which the replay times
// on its own.
func loadCPU(w *workloads.Workload, prog *asm.Program) *sim.CPU {
	c := sim.New()
	c.Load(prog)
	for _, seg := range w.Segments {
		c.Mem.SetBytes(seg.Addr, seg.Bytes)
	}
	return c
}

// functionalPass executes the whole workload on the functional simulator,
// interval by interval as the profile stage does, inside one span.
func functionalPass(tr *tracer, root int, name string, w *workloads.Workload, prog *asm.Program, interval int64, observe func(*sim.Retired)) (insts int64, err error) {
	cpu := loadCPU(w, prog)
	tr.time(root, name, func() {
		for !cpu.Halted && err == nil {
			var n int64
			n, err = cpu.RunTrace(interval, observe)
			insts += n
			if n == 0 {
				break
			}
		}
	})
	return insts, err
}

// functionalPasses runs the workload three times over: bare, under the BBV
// profiler and under the MAV profiler. An observer's cost is its pass less
// the bare one. It returns the bare pass's duration.
func (rp *replay) functionalPasses(w *workloads.Workload, prog *asm.Program, interval int64) (time.Duration, error) {
	var bare time.Duration
	bp, mp := bbv.NewProfiler(interval), mav.NewProfiler(interval)
	for _, pass := range []struct {
		name    string
		observe func(*sim.Retired)
	}{
		{"sim.noop_pass", func(*sim.Retired) {}},
		{"bbv.profile_pass", bp.Observe},
		{"mav.profile_pass", mp.Observe},
	} {
		before, _ := rp.tr.total(rp.root, pass.name)
		insts, err := functionalPass(rp.tr, rp.root, pass.name, w, prog, interval, pass.observe)
		if err != nil {
			return 0, err
		}
		if pass.name == "sim.noop_pass" {
			after, _ := rp.tr.total(rp.root, pass.name)
			bare = after - before
			rp.insts += insts
		}
	}
	return bare, nil
}

// functionalMetrics reduces the functional passes to per-instruction costs.
func (rp *replay) functionalMetrics(lm layerMetrics) {
	if rp.insts == 0 {
		return
	}
	bare := rp.tr.ms(rp.root, "sim.noop_pass")
	perInst := func(ms float64) float64 { return 1e6 * ms / float64(rp.insts) }
	lm["sim.step_ns_per_inst"] = perInst(bare)
	// The difference of two noisy passes; a small observer can read below
	// zero, which means "lost in the noise", not a negative cost.
	lm["bbv.observe_ns_per_inst"] = math.Max(0, perInst(rp.tr.ms(rp.root, "bbv.profile_pass")-bare))
	lm["mav.observe_ns_per_inst"] = math.Max(0, perInst(rp.tr.ms(rp.root, "mav.profile_pass")-bare))
}

// pointRun is one replayed simulation point (or one full run).
type pointRun struct {
	wl      string
	base    string // design point with any DSE suffix stripped
	ns      int64  // host time inside Core.Run
	cycles  uint64 // warm-up + measured
	retired uint64
	mallocs uint64 // boom.New + Core.Run
}

// replay accumulates what the layer spans alone cannot carry.
type replay struct {
	tr     *tracer
	root   int
	points []pointRun
	insts  int64 // functional instructions of one pass over every workload
	ckptB  int
	cellKB float64 // Runner.Run allocation, summed over cells
	cellN  float64 // Runner.Run allocation count, summed over cells
	cells  int
	rec    []sim.Retired
}

// replayPoint re-enacts one simulation point the way Runner.measure does:
// restore, build a core, warm up, measure, estimate. The functional trace
// is recorded first so the tick kernel is timed on its own; the recording
// runs past the measured interval by the core's in-flight capacity, since
// the front end fetches ahead of retirement.
func (rp *replay) replayPoint(wl string, prog *asm.Program, ck *ckpt.Checkpoint, warm, interval uint64, cfg boom.Config, est *power.Estimator, scratch *power.Report, slots []float64) error {
	tr, root := rp.tr, rp.root
	var cpu *sim.CPU
	tr.time(root, "ckpt.restore", func() {
		cpu = sim.New()
		cpu.Load(prog)
		ck.Restore(cpu)
	})

	var m0, m1, m2, m3 runtime.MemStats
	var c *boom.Core
	var err error
	runtime.ReadMemStats(&m0)
	tr.time(root, "boom.new", func() { c, err = boom.New(cfg) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}

	need := int(warm+interval) + cfg.RobEntries + cfg.FetchBufferEntries + 64
	if cap(rp.rec) < need {
		rp.rec = make([]sim.Retired, need)
	}
	rec := rp.rec[:0]
	tr.time(root, "sim.record", func() {
		for len(rec) < need && !cpu.Halted && err == nil {
			rec = rec[:len(rec)+1]
			err = cpu.Step(&rec[len(rec)-1])
		}
	})
	if err != nil {
		return err
	}
	next := 0
	src := func(r *sim.Retired) bool {
		if next == len(rec) {
			return false
		}
		*r = rec[next]
		next++
		return true
	}

	var warmCycles, retired uint64
	var st *boom.Stats
	runtime.ReadMemStats(&m2)
	d := tr.time(root, "boom.run", func() {
		var n uint64
		if warm > 0 {
			if n, err = c.Run(src, warm); err != nil {
				return
			}
			retired += n
			warmCycles = c.Stats().Cycles
		}
		c.ResetStats()
		n, err = c.Run(src, interval)
		retired += n
		st = c.Stats()
	})
	runtime.ReadMemStats(&m3)
	if err != nil {
		return err
	}
	rp.points = append(rp.points, pointRun{
		wl: wl, base: baseConfig(cfg.Name), ns: d.Nanoseconds(),
		cycles: warmCycles + st.Cycles, retired: retired,
		mallocs: (m1.Mallocs - m0.Mallocs) + (m3.Mallocs - m2.Mallocs),
	})
	tr.time(root, "power.estimate", func() {
		err = est.EstimateInto(scratch, st)
		est.SlotPowerInto(slots, st)
	})
	return err
}

// replayCheckpoints re-enacts the checkpoint stage: one functional pass
// over the sorted capture points, then the serialize/deserialize round
// trip the artifact payload wraps.
func (rp *replay) replayCheckpoints(w *workloads.Workload, prog *asm.Program, p *core.Profile) error {
	tr, root := rp.tr, rp.root
	at := make([]int64, len(p.Checkpoints))
	for i, ck := range p.Checkpoints {
		at[i] = ck.Interval*p.Interval - p.WarmupInsts[i]
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	cpu := loadCPU(w, prog)
	var executed int64
	cks := make([]*ckpt.Checkpoint, 0, len(at))
	for _, a := range at {
		var err error
		tr.time(root, "sim.ckpt_run", func() {
			for executed < a && err == nil {
				step := a - executed
				if step > p.Interval {
					step = p.Interval
				}
				_, err = cpu.Run(step)
				executed += step
			}
		})
		if err != nil {
			return err
		}
		tr.time(root, "ckpt.capture", func() { cks = append(cks, ckpt.Capture(cpu)) })
	}
	// The flow streams SerializeAll into compress/flate (the raw images are
	// hundreds of megabytes) and reads it back through the inflater, so the
	// spans do too; ckpt.bytes counts what the ckpt layer itself emits.
	var buf bytes.Buffer
	raw := &countWriter{}
	var err error
	tr.time(root, "ckpt.encode", func() {
		var fw *flate.Writer
		if fw, err = flate.NewWriter(&buf, flate.BestSpeed); err != nil {
			return
		}
		raw.w = fw
		if err = ckpt.SerializeAll(raw, cks); err == nil {
			err = fw.Close()
		}
	})
	if err != nil {
		return err
	}
	rp.ckptB += raw.n
	return decodeCheckpoints(tr, root, buf.Bytes())
}

// decodeCheckpoints times the inflate + DeserializeAll read path.
func decodeCheckpoints(tr *tracer, root int, deflated []byte) error {
	var err error
	tr.time(root, "ckpt.decode", func() {
		fr := flate.NewReader(bytes.NewReader(deflated))
		_, err = ckpt.DeserializeAll(bufio.NewReaderSize(fr, 1<<16))
		fr.Close()
	})
	return err
}

// countWriter counts the bytes passing through to w.
type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += len(b)
	return c.w.Write(b)
}

// replayCampaign profiles and measures every cell of camp through the
// Runner at -j 1 and replays each beside it. With a cache directory the
// Runner's artifacts are replayed through the cache's Put/Get too. It
// returns the sweep the Runner calls add up to.
func replayCampaign(tr *tracer, lm layerMetrics, camp core.Campaign, cacheDir string, traced *rep) (*core.Sweep, error) {
	ctx := context.Background()
	fc := core.FlowConfigFor(camp.Scale)
	reg := metrics.NewRegistry() // cross-checks the replay's cycle count against the engine's
	r := newRunner(camp.Scale, 1, cacheDir, reg)
	rp := &replay{tr: tr, root: tr.start(-1, "replay.campaign")}
	root := rp.root
	sw := &core.Sweep{
		Flow: fc, Scale: camp.Scale,
		Names: camp.Workloads, ConfigNames: camp.ConfigNames(),
		Profiles: map[string]*core.Profile{},
		Results:  map[string]map[string]*core.Result{},
	}
	for _, cfg := range camp.Configs {
		sw.Results[cfg.Name] = map[string]*core.Result{}
	}

	// Each Runner call is followed at once by the same work done through
	// the layers' own APIs, so the two are timed in the same state of the
	// host; a forced GC before the Runner call keeps it from paying for the
	// replay's garbage.
	for _, name := range camp.Workloads {
		var (
			w    *workloads.Workload
			p    *core.Profile
			prog *asm.Program
			err  error
		)
		tr.time(root, "asm.build", func() { w, err = workloads.Build(name, camp.Scale) })
		if err != nil {
			return nil, err
		}
		runtime.GC()
		tr.time(root, "core.profile", func() { p, err = r.Profile(ctx, w) })
		if err != nil {
			return nil, err
		}
		sw.Profiles[name] = p

		// The profile and checkpoint stages each assemble through NewCPU.
		for i := 0; i < 2 && err == nil; i++ {
			tr.time(root, "asm.assemble_profile", func() { prog, err = w.Program() })
		}
		if err != nil {
			return nil, err
		}
		if _, err := rp.functionalPasses(w, prog, p.Interval); err != nil {
			return nil, err
		}
		tr.time(root, "simpoint.choose", func() { _, err = simpoint.Choose(p.Vectors, fc.SimPoint) })
		if err != nil {
			return nil, err
		}
		if err := rp.replayCheckpoints(w, prog, p); err != nil {
			return nil, err
		}

		for _, cfg := range camp.Configs {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			tr.time(root, "core.run", func() { sw.Results[cfg.Name][name], err = r.Run(ctx, p, cfg) })
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			rp.cells++
			rp.cellN += float64(m1.Mallocs - m0.Mallocs)
			rp.cellKB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3

			// Runner.measure assembles the program again for every cell.
			tr.time(root, "asm.assemble_cell", func() { prog, err = w.Program() })
			if err != nil {
				return nil, err
			}
			est := power.NewEstimator(cfg, fc.Lib)
			var scratch power.Report
			slots := make([]float64, cfg.IntIssueSlots)
			for i, ck := range p.Checkpoints {
				if err := rp.replayPoint(name, prog, ck, uint64(p.WarmupInsts[i]), uint64(p.Interval), cfg, est, &scratch, slots); err != nil {
					return nil, err
				}
			}
		}
	}
	tr.stop(root)

	var cycles uint64
	for _, pt := range rp.points {
		cycles += pt.cycles
	}
	if want := uint64(reg.Counter("boom.cycles").Value()); cycles != want {
		traced.out.ops++
		traced.out.fail("layer replay simulated %d cycles where the Runner simulated %d: its spans do not describe the same work", cycles, want)
	}

	put := map[string]float64{}
	if cacheDir != "" {
		var err error
		if put, err = replayArtifacts(tr, root, lm, cacheDir, true); err != nil {
			return nil, err
		}
	}
	rp.fill(lm, put)
	return sw, nil
}

// fill turns the replay's spans into per-layer metrics and the budget.
func (rp *replay) fill(lm layerMetrics, put map[string]float64) {
	tr, root := rp.tr, rp.root
	ms := func(name string) float64 { return tr.ms(root, name) }
	asmMS := ms("asm.build") + ms("asm.assemble_profile") + ms("asm.assemble_cell")
	lm["asm.assemble_ms"] = asmMS
	rp.functionalMetrics(lm)
	lm["simpoint.choose_ms"] = ms("simpoint.choose")
	lm["ckpt.capture_ms"] = ms("ckpt.capture")
	lm["ckpt.encode_ms"] = ms("ckpt.encode")
	lm["ckpt.decode_ms"] = ms("ckpt.decode")
	lm["ckpt.bytes"] = float64(rp.ckptB)
	lm["ckpt.restore_us"] = tr.mean(root, "ckpt.restore") / 1e3
	lm["boom.new_us"] = tr.mean(root, "boom.new") / 1e3
	lm["power.estimate_ns"] = tr.mean(root, "power.estimate")
	rp.fillBoom(lm)

	profileMS, runMS := ms("core.profile"), ms("core.run")
	lm["core.profile_s"] = profileMS / 1e3
	lm["core.run_s"] = runMS / 1e3
	if rp.cells > 0 {
		lm["core.allocs_per_cell"] = rp.cellN / float64(rp.cells)
		lm["core.alloc_kb_per_cell"] = rp.cellKB / float64(rp.cells)
	}
	runLayers := ms("asm.assemble_cell") + ms("ckpt.restore") + ms("boom.new") + ms("sim.record") +
		ms("boom.run") + ms("power.estimate") + put["measure"]
	profileLayers := ms("asm.assemble_profile") + ms("bbv.profile_pass") + ms("simpoint.choose") +
		ms("sim.ckpt_run") + ms("ckpt.capture") + ms("ckpt.encode") +
		put["bbv"] + put["select"] + put["checkpoint"]
	// Each Run is timed right before the replay of its own points, so the
	// two see the same host; a reading below zero still means the replay ran
	// slower than the Runner, not that core gives time back.
	if runMS > 0 {
		lm["core.run_self_pct"] = math.Max(0, 100*(runMS-runLayers)/runMS)
	}

	lm["budget.asm_ms"] = asmMS
	lm["budget.sim_ms"] = ms("sim.noop_pass") + ms("sim.ckpt_run") + ms("sim.record")
	lm["budget.bbv_ms"] = ms("bbv.profile_pass") - ms("sim.noop_pass")
	lm["budget.simpoint_ms"] = ms("simpoint.choose")
	lm["budget.ckpt_ms"] = ms("ckpt.capture") + ms("ckpt.encode") + ms("ckpt.restore")
	lm["budget.boom_ms"] = ms("boom.new") + ms("boom.run")
	lm["budget.power_ms"] = ms("power.estimate")
	lm["budget.artifact_ms"] = put["bbv"] + put["select"] + put["checkpoint"] + put["measure"]
	// What the layer rows are set against: the Runner calls made beside
	// them in this same loop (Sweep's own workload build, Profile, Run).
	// Core self time is what those calls spend beyond the layer calls
	// replayed (payload codecs, flate, the ordered fold).
	lm["budget.runner_ms"] = ms("asm.build") + profileMS + runMS
	lm["budget.core_self_ms"] = (profileMS - profileLayers) + (runMS - runLayers)
}

// fillBoom derives the tick-kernel metrics from the replayed points.
func (rp *replay) fillBoom(lm layerMetrics) {
	type acc struct {
		ns              int64
		cycles, retired uint64
	}
	byWL, byBase := map[string]*acc{}, map[string]*acc{}
	var mallocs uint64
	add := func(m map[string]*acc, k string, pt pointRun) {
		a := m[k]
		if a == nil {
			a = &acc{}
			m[k] = a
		}
		a.ns += pt.ns
		a.cycles += pt.cycles
		a.retired += pt.retired
	}
	for _, pt := range rp.points {
		add(byWL, pt.wl, pt)
		add(byBase, pt.base, pt)
		mallocs += pt.mallocs
	}
	if len(rp.points) > 0 {
		lm["boom.allocs_per_run"] = float64(mallocs) / float64(len(rp.points))
	}
	for base, a := range byBase {
		if a.retired > 0 {
			lm["boom.ns_per_inst."+base] = float64(a.ns) / float64(a.retired)
		}
	}
	// The highest- and lowest-IPC workloads of the campaign (sha and
	// tarfind on the paper's eleven): host cost per simulated cycle at the
	// two ends of pipeline occupancy.
	var hi, lo *acc
	for _, a := range byWL {
		if a.cycles == 0 {
			continue
		}
		ipc := func(x *acc) float64 { return float64(x.retired) / float64(x.cycles) }
		if hi == nil || ipc(a) > ipc(hi) {
			hi = a
		}
		if lo == nil || ipc(a) < ipc(lo) {
			lo = a
		}
	}
	if hi != nil {
		lm["boom.ns_per_cycle.hi_ipc"] = float64(hi.ns) / float64(hi.cycles)
		lm["boom.ns_per_cycle.lo_ipc"] = float64(lo.ns) / float64(lo.cycles)
	}
}

// artifactStages are the cache's stage directories the sweep flow writes.
var artifactStages = []string{"bbv", "select", "checkpoint", "measure"}

// replayArtifacts reads every entry under a cache directory back through
// Cache.Get and, when asked, writes it through Cache.Put into a scratch
// cache beside it. It fills the per-kind get/put/bytes metrics and
// returns the per-kind put time in milliseconds.
func replayArtifacts(tr *tracer, root int, lm layerMetrics, dir string, doPut bool) (map[string]float64, error) {
	src := artifact.Open(dir)
	scratch := dir + ".replay"
	defer os.RemoveAll(scratch)
	dst := artifact.Open(scratch)
	put := map[string]float64{}
	for _, stage := range artifactStages {
		keys, err := stageKeys(dir, stage)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			var payload []byte
			var cost int64
			var ok bool
			d := tr.time(root, "artifact.get."+stage, func() { payload, cost, ok = src.Get(k) })
			if !ok {
				return nil, fmt.Errorf("artifact %s vanished from %s", k, dir)
			}
			lm["artifact.get_ms."+stage] += float64(d.Nanoseconds()) / 1e6
			lm["artifact.bytes."+stage] += float64(len(payload))
			if !doPut {
				continue
			}
			d = tr.time(root, "artifact.put."+stage, func() { err = dst.Put(k, payload, cost) })
			if err != nil {
				return nil, err
			}
			put[stage] += float64(d.Nanoseconds()) / 1e6
		}
		lm["artifact.put_ms."+stage] = put[stage]
	}
	return put, nil
}

// stageKeys lists one stage's entries: <dir>/<stage>/<hh>/<hex>.v<N>.
func stageKeys(dir, stage string) ([]artifact.Key, error) {
	var keys []artifact.Key
	err := filepath.WalkDir(filepath.Join(dir, stage), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rest, ver, ok := strings.Cut(d.Name(), ".v")
		if !ok {
			return nil
		}
		n, err := strconv.Atoi(ver)
		if err != nil {
			return nil // a temp file mid-rename, not an entry
		}
		sum, err := hex.DecodeString(filepath.Base(filepath.Dir(path)) + rest)
		if err != nil || len(sum) != len(artifact.Key{}.Sum) {
			return nil
		}
		k := artifact.Key{Stage: stage, Version: n}
		copy(k.Sum[:], sum)
		keys = append(keys, k)
		return nil
	})
	if os.IsNotExist(err) {
		return nil, nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Hex() < keys[j].Hex() })
	return keys, err
}

// ---- per-workload traced passes ----------------------------------------

func (w *sweepWL) traceLayers(tr *tracer, lm layerMetrics, traced *rep) error {
	if w.nm != "sweep-cold" {
		return nil // the replay is a -j 1 account; sweep-cold carries it
	}
	dir, err := w.e.tempDir("sweep-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sw, err := replayCampaign(tr, lm, w.camp, dir, traced)
	if err != nil {
		return err
	}
	root := tr.start(-1, "replay.report")
	tr.time(root, "report.render", func() {
		for _, t := range []*report.Table{
			report.TableI(w.camp.Configs), report.TableII(sw),
			report.FigComponentPower(sw, "MediumBOOM"), report.FigComponentPower(sw, "LargeBOOM"),
			report.FigComponentPower(sw, "MegaBOOM"), report.FigSlotPower(sw, "MegaBOOM", "dijkstra", "sha"),
			report.FigContribution(sw), report.FigIPC(sw), report.FigPerfPerWatt(sw),
			report.SpeedupTable(sw), report.PhaseProfile(sw, "MegaBOOM", "sha"), report.PowerSources(sw),
		} {
			_ = t.Render()
		}
	})
	tr.stop(root)
	lm["report.render_ms"] = tr.ms(root, "report.render")
	return nil
}

// traceLayers on the warm path: the cache is read, not written, so the
// replay is the artifact Get per kind, the checkpoint decode, and the
// Runner's own Profile/Run served from the cache.
func (w *warmWL) traceLayers(tr *tracer, lm layerMetrics, _ *rep) error {
	root := tr.start(-1, "replay.warm")
	if _, err := replayArtifacts(tr, root, lm, w.cache, false); err != nil {
		return err
	}
	ctx := context.Background()
	r := newRunner(w.camp.Scale, 1, w.cache, nil)
	for _, name := range w.camp.Workloads {
		wl, err := workloads.Build(name, w.camp.Scale)
		if err != nil {
			return err
		}
		var p *core.Profile
		tr.time(root, "core.profile", func() { p, err = r.Profile(ctx, wl) })
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		raw := &countWriter{w: fw}
		if err := ckpt.SerializeAll(raw, p.Checkpoints); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		lm["ckpt.bytes"] += float64(raw.n)
		if err := decodeCheckpoints(tr, root, buf.Bytes()); err != nil {
			return err
		}
		for _, cfg := range w.camp.Configs {
			tr.time(root, "core.run", func() { _, err = r.Run(ctx, p, cfg) })
			if err != nil {
				return err
			}
		}
	}
	tr.stop(root)
	lm["ckpt.decode_ms"] = tr.ms(root, "ckpt.decode")
	lm["core.profile_s"] = tr.ms(root, "core.profile") / 1e3
	lm["core.run_s"] = tr.ms(root, "core.run") / 1e3
	return nil
}

func (w *dseWL) traceLayers(tr *tracer, lm layerMetrics, traced *rep) error {
	root := tr.start(-1, "replay.dse")
	var pts []boom.Config
	var err error
	tr.time(root, "dse.expand", func() { pts, err = w.sample() })
	if err != nil {
		return err
	}
	sw, err := replayCampaign(tr, lm, core.NewCampaign(w.names, pts, w.e.size.scale), "", traced)
	if err != nil {
		return err
	}
	tr.time(root, "dse.frontier", func() { _, err = dseReport(sw) })
	tr.stop(root)
	lm["dse.expand_ms"] = tr.ms(root, "dse.expand")
	lm["dse.frontier_ms"] = tr.ms(root, "dse.frontier")
	lm["dse.points"] = float64(len(pts))
	return err
}

// traceLayers for the full-detail runs: no checkpoints and no per-point
// set-up, so the replay is the functional passes plus the same streamed
// Core.Run loop RunFull drives. The trace source is the live functional
// simulator here (a full trace does not fit in memory), so the tick
// kernel's share is the loop's time less the functional pass's.
func (w *fullWL) traceLayers(tr *tracer, lm layerMetrics, traced *rep) error {
	rp := &replay{tr: tr, root: tr.start(-1, "replay.full")}
	root := rp.root
	cfg := boom.MegaBOOM()
	est := power.NewEstimator(cfg, core.FlowConfigFor(w.e.size.scale).Lib)
	for _, name := range w.order {
		wl := w.built[name]
		var prog *asm.Program
		var err error
		tr.time(root, "asm.assemble_cell", func() { prog, err = wl.Program() })
		if err != nil {
			return err
		}
		functional, err := rp.functionalPasses(wl, prog, wl.IntervalSize)
		if err != nil {
			return err
		}

		var m0, m1 runtime.MemStats
		var c *boom.Core
		runtime.ReadMemStats(&m0)
		tr.time(root, "boom.new", func() { c, err = boom.New(cfg) })
		if err != nil {
			return err
		}
		cpu := loadCPU(wl, prog)
		src := func(r *sim.Retired) bool {
			if err != nil || cpu.Halted {
				return false
			}
			err = cpu.Step(r)
			return err == nil
		}
		var retired uint64
		d := tr.time(root, "boom.run", func() {
			chunk := uint64(wl.IntervalSize)
			for {
				n, rerr := c.Run(src, chunk)
				retired += n
				if rerr != nil {
					err = rerr
				}
				if err != nil || n < chunk {
					return
				}
			}
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		st := c.Stats()
		tick := (d - functional).Nanoseconds()
		rp.points = append(rp.points, pointRun{
			wl: name, base: cfg.Name, ns: tick, cycles: st.Cycles, retired: retired,
			mallocs: m1.Mallocs - m0.Mallocs,
		})
		tr.time(root, "power.estimate", func() { _, err = est.Estimate(st) })
		if err != nil {
			return err
		}
	}
	tr.stop(root)
	ms := func(name string) float64 { return tr.ms(root, name) }
	lm["asm.assemble_ms"] = ms("asm.assemble_cell")
	rp.functionalMetrics(lm)
	lm["boom.new_us"] = tr.mean(root, "boom.new") / 1e3
	lm["power.estimate_ns"] = tr.mean(root, "power.estimate")
	rp.fillBoom(lm)
	runMS := 1e3 * traced.wallS
	lm["core.run_s"] = traced.wallS
	lm["core.run_self_pct"] = 100 * (runMS - ms("asm.assemble_cell") - ms("boom.new") - ms("boom.run") - ms("power.estimate")) / runMS
	// The accuracy set-up profiled every workload under both specs.
	for _, res := range w.legacy {
		lm["simpoint.points"] += float64(res.NumPoints)
	}
	return nil
}
