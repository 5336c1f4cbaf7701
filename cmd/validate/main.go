// Command validate runs a fast end-to-end acceptance pass — the "does my
// checkout work" tool: every workload's checksum against its Go reference,
// a SimPoint accuracy probe, and the headline paper shapes. It exits
// non-zero on any failure. (~30 s; the full evidence lives in `go test`.)
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/asap7"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var failed bool

func check(name string, ok bool, detail string) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("[%s] %-42s %s\n", status, name, detail)
}

func main() {
	cacheDir := flag.String("cache", "", "artifact cache directory (empty = no caching)")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and fail on divergence")
	flag.Parse()
	opts, err := core.Engine{CacheDir: *cacheDir, CacheVerify: *cacheVerify}.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}

	// 1. Workload checksums: assembler + functional simulator + kernels.
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			check("build "+name, false, err.Error())
			continue
		}
		cpu, err := w.NewCPU()
		if err != nil {
			check("load "+name, false, err.Error())
			continue
		}
		if _, err := cpu.Run(-1); err != nil {
			check("run "+name, false, err.Error())
			continue
		}
		got := uint64(cpu.Exit)
		check("checksum "+name, cpu.Halted && got == w.Checksum,
			fmt.Sprintf("%d insts", cpu.InstRet))
	}

	// 2. SimPoint flow accuracy on one workload.
	runner := core.New(core.DefaultFlowConfig(), append(opts, core.WithScale(workloads.ScaleTiny))...)
	ctx := context.Background()
	acc, err := runner.Validate(ctx, "bitcount", boom.LargeBOOM())
	if err != nil {
		check("simpoint accuracy", false, err.Error())
	} else {
		e := math.Abs(acc.ErrorPct())
		check("simpoint accuracy", e < 20,
			fmt.Sprintf("IPC %.3f vs full %.3f (%.1f%% err)", acc.SimPointIPC, acc.FullIPC, e))
	}

	// 3. Headline shapes on a small sweep.
	sw, err := runner.Sweep(ctx, core.NewCampaign([]string{"sha", "tarfind"},
		[]boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}, workloads.ScaleTiny))
	if err != nil {
		check("sweep", false, err.Error())
	} else {
		med, mega := sw.Results["MediumBOOM"], sw.Results["MegaBOOM"]
		check("IPC scales with width (sha)",
			mega["sha"].IPC() > med["sha"].IPC(),
			fmt.Sprintf("%.2f vs %.2f", mega["sha"].IPC(), med["sha"].IPC()))
		check("tarfind slowest", mega["tarfind"].IPC() < mega["sha"].IPC(),
			fmt.Sprintf("%.2f vs %.2f", mega["tarfind"].IPC(), mega["sha"].IPC()))
		check("Medium wins perf/W (sha)",
			med["sha"].PerfPerWatt() > mega["sha"].PerfPerWatt(),
			fmt.Sprintf("%.0f vs %.0f IPC/W", med["sha"].PerfPerWatt(), mega["sha"].PerfPerWatt()))
		for _, cfg := range []string{"MediumBOOM", "MegaBOOM"} {
			r := sw.Results[cfg]["sha"]
			bp := r.Power.Comp[boom.CompBranchPredictor].TotalMW()
			top := true
			for _, c := range boom.AnalyzedComponents() {
				if c != boom.CompBranchPredictor && r.Power.Comp[c].TotalMW() > bp {
					top = false
				}
			}
			check("branch predictor is #1 ("+cfg+")", top, fmt.Sprintf("%.2f mW", bp))
		}
	}

	// 4. TAGE vs GShare ablation direction.
	tage := bpPower(boom.MediumBOOM())
	gcfg := boom.MediumBOOM()
	gcfg.Predictor = boom.PredictorGShare
	gshare := bpPower(gcfg)
	check("TAGE > GShare power", tage > 1.5*gshare,
		fmt.Sprintf("%.2f vs %.2f mW (%.1f×)", tage, gshare, tage/gshare))

	if failed {
		fmt.Println("\nvalidation FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

func bpPower(cfg boom.Config) float64 {
	w, err := workloads.Build("dijkstra", workloads.ScaleTiny)
	if err != nil {
		return math.NaN()
	}
	cpu, err := w.NewCPU()
	if err != nil {
		return math.NaN()
	}
	c, err := boom.New(cfg)
	if err != nil {
		return math.NaN()
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
		return math.NaN()
	}
	rep, err := power.NewEstimator(cfg, asap7.Default()).Estimate(c.Stats())
	if err != nil {
		return math.NaN()
	}
	return rep.Comp[boom.CompBranchPredictor].TotalMW()
}
