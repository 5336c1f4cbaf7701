// Command boomflow evaluates one workload on one BOOM configuration and
// prints performance counters and the per-component power breakdown:
//
//	go run ./cmd/boomflow -bench sha -config mega
//	go run ./cmd/boomflow -bench dijkstra -config medium -mode full -scale tiny
//	go run ./cmd/boomflow -bench dijkstra -config mega -predictor gshare
//
// Observability: -metrics text|json renders the flow's metrics registry
// (per-stage spans, simulator throughput, k-means stats) after the report;
// -metrics-out redirects it to a file. -cpuprofile and -exectrace write
// pprof / runtime-trace artifacts for deeper digging:
//
//	go run ./cmd/boomflow -bench sha -metrics json -metrics-out sha.json
//	go run ./cmd/boomflow -bench sha -cpuprofile cpu.pprof
//
// -cache DIR serves every pipeline stage from a content-addressed
// artifact cache (bit-identical results, cold or warm); -cache-verify
// recomputes each hit and fails on divergence.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	rttrace "runtime/trace"
	"sort"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "sha", "workload name (see -list)")
	configName := flag.String("config", "medium", "medium|large|mega")
	scaleFlag := flag.String("scale", "default", "tiny|default|paper")
	mode := flag.String("mode", "simpoint", "simpoint|full")
	predictor := flag.String("predictor", "tage", "tage|gshare (Takeaway #7 ablation)")
	list := flag.Bool("list", false, "list workloads and exit")
	trace := flag.Uint64("trace", 0, "emit a pipeline lifecycle trace for the first N instructions (full mode)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace to this file")
	ef := engineflags.Register(flag.CommandLine)
	ef.RegisterMetrics(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fatal(err)
		}
		if err := rttrace.Start(f); err != nil {
			fatal(err)
		}
		defer func() {
			rttrace.Stop()
			f.Close()
		}()
	}

	cfg, err := boom.ConfigByName(*configName)
	if err != nil {
		fatal(err)
	}
	switch *predictor {
	case "tage":
	case "gshare":
		cfg.Predictor = boom.PredictorGShare
	default:
		fatal(fmt.Errorf("unknown predictor %q", *predictor))
	}
	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	w, err := workloads.Build(*bench, scale)
	if err != nil {
		fatal(err)
	}
	fc := core.FlowConfigFor(scale)

	opts := []core.Option{core.WithScale(scale)}
	engineOpts, err := ef.Options()
	if err != nil {
		fatal(err)
	}
	opts = append(opts, engineOpts...)
	reg := ef.MetricsRegistry()
	opts = append(opts, core.WithMetrics(reg))
	runner := core.New(fc, opts...)
	ctx := context.Background()

	var r *core.Result
	switch *mode {
	case "simpoint":
		fmt.Fprintf(os.Stderr, "profiling %s (%s scale)...\n", w.Name, scale)
		p, err := runner.Profile(ctx, w)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d insts, %d intervals, k=%d, %d simpoints (%.0f%% coverage)\n",
			p.TotalInsts, len(p.Vectors), p.Selection.K, p.NumSimPoints(),
			100*p.Selection.Coverage)
		r, err = runner.Run(ctx, p, cfg)
		if err != nil {
			fatal(err)
		}
	case "full":
		if *trace > 0 {
			cpu, err := w.NewCPU()
			if err != nil {
				fatal(err)
			}
			c, err := boom.New(cfg)
			if err != nil {
				fatal(err)
			}
			c.SetPipeTrace(os.Stdout, *trace)
			if _, err := c.Run(func(rr *sim.Retired) bool {
				if cpu.Halted {
					return false
				}
				if err := cpu.Step(rr); err != nil {
					fatal(err)
				}
				return true
			}, *trace+1000); err != nil {
				fatal(err)
			}
			return
		}
		r, err = runner.RunFull(ctx, w, cfg)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	st := r.Stats
	fmt.Printf("workload      %s (%s)\n", r.Workload, r.Suite)
	fmt.Printf("config        %s (predictor %s)\n", cfg.Name, cfg.Predictor)
	fmt.Printf("mode          %s\n", r.Mode)
	fmt.Printf("instructions  %d (detailed-simulated %d)\n", r.TotalInsts, r.DetailedInsts)
	fmt.Printf("IPC           %.3f\n", r.IPC())
	fmt.Printf("mispredict    %.2f%% of %d branches\n", 100*st.MispredictRate(), st.Branches)
	dcTotal := st.DCacheHits + st.DCacheMisses
	if dcTotal > 0 {
		fmt.Printf("L1D miss      %.2f%% of %d accesses\n",
			100*float64(st.DCacheMisses)/float64(dcTotal), dcTotal)
	}
	fmt.Printf("tile power    %.2f mW  →  %.0f IPC/W\n\n", r.TotalPowerMW(), r.PerfPerWatt())

	type entry struct {
		comp boom.Component
		mw   float64
	}
	var entries []entry
	for _, c := range boom.AnalyzedComponents() {
		entries = append(entries, entry{c, r.Power.Comp[c].TotalMW()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mw > entries[j].mw })
	fmt.Println("component power (mW, leakage/internal/switching):")
	for _, e := range entries {
		b := r.Power.Comp[e.comp]
		fmt.Printf("  %-16s %6.2f   (%5.2f / %5.2f / %5.2f)  %4.1f%%\n",
			e.comp, e.mw, b.LeakageMW, b.InternalMW, b.SwitchingMW,
			100*e.mw/r.TotalPowerMW())
	}
	other := r.Power.Comp[boom.CompOther]
	fmt.Printf("  %-16s %6.2f   (%5.2f / %5.2f / %5.2f)  %4.1f%%\n",
		"Other", other.TotalMW(), other.LeakageMW, other.InternalMW, other.SwitchingMW,
		100*other.TotalMW()/r.TotalPowerMW())

	if reg != nil {
		if ef.MetricsMode == "text" && (ef.MetricsOut == "-" || ef.MetricsOut == "") {
			fmt.Println() // separate the report from the metrics dump
		}
		if err := ef.EmitMetrics(reg, os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "boomflow:", err)
	os.Exit(1)
}
