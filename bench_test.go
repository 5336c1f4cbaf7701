// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (run e.g. `go test -bench Fig10 -benchtime 1x`), plus
// microbenchmarks of every substrate. The figure benches print the
// regenerated artifact once and report the headline metric; absolute
// throughput numbers (ns/op) measure this implementation, not the paper's
// testbed.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/asap7"
	"repro/internal/asm"
	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// ---- shared sweep (computed once; benchmark iterations render from it) ----

var (
	sweepOnce sync.Once
	sweepVal  *core.Sweep
	sweepErr  error

	printOnce sync.Map
)

func benchSweep(b *testing.B) *core.Sweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = core.New(core.FlowConfigFor(workloads.ScaleTiny)).
			Sweep(context.Background(), core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny))
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

// show prints a table once per process (so -bench=. output contains each
// artifact exactly once).
func show(key string, t *report.Table) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(t.Render())
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := report.TableI(boom.Configs())
		show("table1", t)
	}
}

func BenchmarkTableII(b *testing.B) {
	sw := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		show("table2", report.TableII(sw))
	}
}

func benchFig(b *testing.B, key string, build func(*core.Sweep) *report.Table) {
	sw := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		show(key, build(sw))
	}
}

func BenchmarkFig5(b *testing.B) {
	benchFig(b, "fig5", func(sw *core.Sweep) *report.Table {
		return report.FigComponentPower(sw, "MediumBOOM")
	})
}

func BenchmarkFig6(b *testing.B) {
	benchFig(b, "fig6", func(sw *core.Sweep) *report.Table {
		return report.FigComponentPower(sw, "LargeBOOM")
	})
}

func BenchmarkFig7(b *testing.B) {
	benchFig(b, "fig7", func(sw *core.Sweep) *report.Table {
		return report.FigComponentPower(sw, "MegaBOOM")
	})
}

func BenchmarkFig8(b *testing.B) {
	benchFig(b, "fig8", func(sw *core.Sweep) *report.Table {
		return report.FigSlotPower(sw, "MegaBOOM", "dijkstra", "sha")
	})
}

func BenchmarkFig9(b *testing.B) {
	benchFig(b, "fig9", report.FigContribution)
}

func BenchmarkFig10(b *testing.B) {
	sw := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		show("fig10", report.FigIPC(sw))
	}
	b.ReportMetric(sw.Results["MegaBOOM"]["sha"].IPC(), "sha-mega-IPC")
	b.ReportMetric(sw.Results["MegaBOOM"]["tarfind"].IPC(), "tarfind-mega-IPC")
}

func BenchmarkFig11(b *testing.B) {
	sw := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		show("fig11", report.FigPerfPerWatt(sw))
	}
	med := sw.Results["MediumBOOM"]
	mega := sw.Results["MegaBOOM"]
	var medSum, megaSum float64
	for _, n := range workloads.Names() {
		medSum += med[n].PerfPerWatt()
		megaSum += mega[n].PerfPerWatt()
	}
	b.ReportMetric(medSum/megaSum, "medium-vs-mega-perf/W")
}

func BenchmarkSimPointSpeedup(b *testing.B) {
	sw := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		show("speedup", report.SpeedupTable(sw))
	}
	sp := sw.SpeedupOf()
	b.ReportMetric(sp.Speedup(), "reduction-x")
}

func BenchmarkSimPointAccuracy(b *testing.B) {
	ctx := context.Background()
	var ipcErr float64
	for i := 0; i < b.N; i++ {
		w, err := workloads.Build("bitcount", workloads.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		r := core.New(core.DefaultFlowConfig())
		p, err := r.Profile(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := r.Run(ctx, p, boom.LargeBOOM())
		if err != nil {
			b.Fatal(err)
		}
		full, err := r.RunFull(ctx, w, boom.LargeBOOM())
		if err != nil {
			b.Fatal(err)
		}
		ipcErr = 100 * math.Abs(sp.IPC()-full.IPC()) / full.IPC()
	}
	b.ReportMetric(ipcErr, "IPC-error-%")
}

// BenchmarkAblationTAGEvsGShare measures the Key-Takeaway-#7 ablation.
func BenchmarkAblationTAGEvsGShare(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tage := bpPower(b, boom.LargeBOOM())
		gcfg := boom.LargeBOOM()
		gcfg.Predictor = boom.PredictorGShare
		ratio = tage / bpPower(b, gcfg)
	}
	b.ReportMetric(ratio, "TAGE/GShare-power")
}

func bpPower(b *testing.B, cfg boom.Config) float64 {
	b.Helper()
	st := runTiming(b, "dijkstra", cfg)
	rep, err := power.NewEstimator(cfg, asap7.Default()).Estimate(st)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Comp[boom.CompBranchPredictor].TotalMW()
}

func runTiming(b *testing.B, name string, cfg boom.Config) *boom.Stats {
	b.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		b.Fatal(err)
	}
	c, err := boom.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(func(r *sim.Retired) bool {
		if cpu.Halted {
			return false
		}
		if err := cpu.Step(r); err != nil {
			panic(err)
		}
		return true
	}, math.MaxUint64); err != nil {
		b.Fatal(err)
	}
	return c.Stats()
}

// ---- substrate microbenchmarks ----

// BenchmarkFunctionalSim measures functional-simulator throughput.
func BenchmarkFunctionalSim(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		cpu, err := w.NewCPU()
		if err != nil {
			b.Fatal(err)
		}
		n, err := cpu.Run(-1)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTimingModel measures cycle-model throughput.
func BenchmarkTimingModel(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	cfg := boom.LargeBOOM()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cpu, err := w.NewCPU()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c, err := boom.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n, err := c.Run(func(r *sim.Retired) bool {
			if cpu.Halted {
				return false
			}
			if err := cpu.Step(r); err != nil {
				panic(err)
			}
			return true
		}, math.MaxUint64)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkAssembler measures toolchain throughput.
func BenchmarkAssembler(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny) // largest source (unrolled rounds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(w.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBBVProfiling measures profiling overhead on the functional path.
func BenchmarkBBVProfiling(b *testing.B) {
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := w.NewCPU()
		if err != nil {
			b.Fatal(err)
		}
		p := bbv.NewProfiler(w.IntervalSize)
		if _, err := cpu.RunTrace(-1, p.Observe); err != nil {
			b.Fatal(err)
		}
		p.Finish()
	}
}

// BenchmarkSimPointClustering measures k-means+BIC selection.
func BenchmarkSimPointClustering(b *testing.B) {
	vecs := make([]bbv.Vector, 200)
	for i := range vecs {
		phase := i / 50
		vecs[i] = bbv.Vector{phase*8 + 1: 700, phase*8 + 2: 300}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simpoint.Choose(vecs, simpoint.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerEstimate measures the Joules-style estimation step alone.
func BenchmarkPowerEstimate(b *testing.B) {
	cfg := boom.MegaBOOM()
	st := runTiming(b, "bitcount", cfg)
	est := power.NewEstimator(cfg, asap7.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(st); err != nil {
			b.Fatal(err)
		}
	}
}
