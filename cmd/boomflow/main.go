// Command boomflow is the one-workload entry point of the flow. It
// evaluates one workload on one BOOM configuration and prints performance
// counters and the per-component power breakdown (-mode simpoint, the
// default, or -mode full for the detailed run SimPoints replace), or stops
// after the profiling half (-mode profile; -out DIR also writes SimPoint
// 3.0-compatible .bb/.simpoints/.weights files and the checkpoints):
//
//	go run ./cmd/boomflow -bench sha -config mega
//	go run ./cmd/boomflow -bench dijkstra -config medium -mode full -scale tiny
//	go run ./cmd/boomflow -bench dijkstra -config mega -predictor gshare
//	go run ./cmd/boomflow -bench fft -mode profile -out /tmp/fft-ckpts
//
// -metrics text|json renders the flow's metrics registry after the report;
// -cpuprofile and -exectrace write pprof / runtime-trace files; -mode full
// -trace N prints a pipeline lifecycle trace instead of a report; -cache
// DIR serves every stage from the artifact cache (bit-identical results).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	rttrace "runtime/trace"
	"sort"

	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "boomflow:", err)
		os.Exit(1)
	}
}

// run is main minus the process boundary: tests drive it in-process, and
// every error path returns through the deferred profile flush.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("boomflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "sha", "workload name (see -list)")
	configName := fs.String("config", "medium", "medium|large|mega")
	scaleFlag := fs.String("scale", "default", "tiny|default|paper")
	mode := fs.String("mode", "simpoint", "simpoint|full|profile")
	predictor := fs.String("predictor", "tage", "tage|gshare (Takeaway #7 ablation)")
	list := fs.Bool("list", false, "list workloads and exit")
	trace := fs.Uint64("trace", 0, "emit a pipeline lifecycle trace for the first N instructions (full mode)")
	out := fs.String("out", "", "directory to write serialized checkpoints")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	exectrace := fs.String("exectrace", "", "write a runtime execution trace to this file")
	ef := engineflags.Register(fs)
	ef.RegisterMetrics(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	if *mode != "simpoint" && *mode != "full" && *mode != "profile" {
		return fmt.Errorf("unknown -mode %q (simpoint|full|profile)", *mode)
	}
	if *trace > 0 && *mode != "full" {
		return fmt.Errorf("-trace requires -mode full (got -mode %s)", *mode)
	}
	if *out != "" && *mode != "profile" {
		return fmt.Errorf("-out requires -mode profile (got -mode %s)", *mode)
	}
	// boomflow calls Profile/Run/RunFull directly; only Sweep supervises.
	const unsupervised = "%s supervises sweep tasks (tables, dse, boomd); boomflow runs one unsupervised flow"
	if ef.Retries != 0 {
		return fmt.Errorf(unsupervised, "-retries")
	}
	if ef.KeepGoing {
		return fmt.Errorf(unsupervised, "-keep-going")
	}
	cfg, err := boom.ConfigByName(*configName)
	if err != nil {
		return err
	}
	switch *predictor {
	case "tage":
	case "gshare":
		cfg.Predictor = boom.PredictorGShare
	default:
		return fmt.Errorf("unknown -predictor %q (tage|gshare)", *predictor)
	}
	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	w, err := workloads.Build(*bench, scale)
	if err != nil {
		return err
	}
	engineOpts, err := ef.Options()
	if err != nil {
		return err
	}

	stopCPU, err := startProfile(*cpuprofile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		return err
	}
	defer stopCPU(&err)
	stopTrace, err := startProfile(*exectrace, rttrace.Start, rttrace.Stop)
	if err != nil {
		return err
	}
	defer stopTrace(&err)

	if *trace > 0 {
		return pipeTrace(w, cfg, *trace, stdout)
	}

	reg := ef.MetricsRegistry()
	opts := append([]core.Option{core.WithScale(scale), core.WithMetrics(reg)}, engineOpts...)
	runner := core.New(core.FlowConfigFor(scale), opts...)
	ctx := context.Background()

	if *mode == "full" {
		r, err := runner.RunFull(ctx, w, cfg)
		if err != nil {
			return err
		}
		printReport(stdout, r, cfg)
	} else { // simpoint and profile share the profiling half
		fmt.Fprintf(stderr, "profiling %s (%s scale)...\n", w.Name, scale)
		p, err := runner.Profile(ctx, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%d insts, %d intervals, k=%d, %d simpoints (%.0f%% coverage)\n",
			p.TotalInsts, len(p.Vectors), p.Selection.K, p.NumSimPoints(),
			100*p.Selection.Coverage)
		if *mode == "simpoint" {
			r, err := runner.Run(ctx, p, cfg)
			if err != nil {
				return err
			}
			printReport(stdout, r, cfg)
		} else {
			printProfile(stdout, p, scale)
			if err := writeProfile(stdout, *out, p); err != nil {
				return err
			}
		}
	}

	if reg != nil && ef.MetricsMode == "text" && (ef.MetricsOut == "-" || ef.MetricsOut == "") {
		fmt.Fprintln(stdout) // separate the report from the metrics dump
	}
	return ef.EmitMetrics(reg, stdout)
}

// startProfile starts one runtime profile (CPU profile, execution trace)
// into path; an empty path means it was not asked for. stop flushes and
// closes the file, leaving a close error in *errp unless one is there.
func startProfile(path string, begin func(io.Writer) error, end func()) (stop func(errp *error), err error) {
	if path == "" {
		return func(*error) {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := begin(f); err != nil {
		f.Close()
		return nil, err
	}
	return func(errp *error) {
		end()
		if cerr := f.Close(); *errp == nil {
			*errp = cerr
		}
	}, nil
}

// pipeTrace runs the first n instructions of w through the detailed model
// with the lifecycle trace on; the trace is the whole output.
func pipeTrace(w *workloads.Workload, cfg boom.Config, n uint64, stdout io.Writer) error {
	cpu, err := w.NewCPU()
	if err != nil {
		return err
	}
	c, err := boom.New(cfg)
	if err != nil {
		return err
	}
	c.SetPipeTrace(stdout, n)
	var stepErr error
	_, err = c.Run(func(rr *sim.Retired) bool {
		if cpu.Halted {
			return false
		}
		stepErr = cpu.Step(rr)
		return stepErr == nil
	}, n+1000)
	if stepErr != nil {
		return stepErr
	}
	return err
}

// printReport renders one (workload, config) result: the performance
// header, then the 13 analysed components by descending power, then Other.
func printReport(stdout io.Writer, r *core.Result, cfg boom.Config) {
	st := r.Stats
	fmt.Fprintf(stdout, "workload      %s (%s)\n", r.Workload, r.Suite)
	fmt.Fprintf(stdout, "config        %s (predictor %s)\n", cfg.Name, cfg.Predictor)
	fmt.Fprintf(stdout, "mode          %s\n", r.Mode)
	fmt.Fprintf(stdout, "instructions  %d (detailed-simulated %d)\n", r.TotalInsts, r.DetailedInsts)
	fmt.Fprintf(stdout, "IPC           %.3f\n", r.IPC())
	fmt.Fprintf(stdout, "mispredict    %.2f%% of %d branches\n", 100*st.MispredictRate(), st.Branches)
	if dcTotal := st.DCacheHits + st.DCacheMisses; dcTotal > 0 {
		fmt.Fprintf(stdout, "L1D miss      %.2f%% of %d accesses\n",
			100*float64(st.DCacheMisses)/float64(dcTotal), dcTotal)
	}
	fmt.Fprintf(stdout, "tile power    %.2f mW  →  %.0f IPC/W\n\n", r.TotalPowerMW(), r.PerfPerWatt())

	comps := boom.AnalyzedComponents()
	sort.SliceStable(comps, func(i, j int) bool {
		return r.Power.Comp[comps[i]].TotalMW() > r.Power.Comp[comps[j]].TotalMW()
	})
	row := func(name string, c boom.Component) {
		b := r.Power.Comp[c]
		fmt.Fprintf(stdout, "  %-16s %6.2f   (%5.2f / %5.2f / %5.2f)  %4.1f%%\n",
			name, b.TotalMW(), b.LeakageMW, b.InternalMW, b.SwitchingMW,
			100*b.TotalMW()/r.TotalPowerMW())
	}
	fmt.Fprintln(stdout, "component power (mW, leakage/internal/switching):")
	for _, c := range comps {
		row(c.String(), c)
	}
	row("Other", boom.CompOther)
}

// printProfile renders the profiling half: the clustering summary and one
// row per selected simulation point, in units of the interval the profile
// was taken with (p.Interval: the workload's own unless -interval overrode it).
func printProfile(stdout io.Writer, p *core.Profile, scale workloads.Scale) {
	w, cs := p.Workload, p.Selection.Stats
	fmt.Fprintf(stdout, "workload        %s (%s), %s scale\n", w.Name, w.Suite, scale)
	fmt.Fprintf(stdout, "instructions    %d\n", p.TotalInsts)
	fmt.Fprintf(stdout, "interval size   %d\n", p.Interval)
	fmt.Fprintf(stdout, "intervals       %d\n", len(p.Vectors))
	fmt.Fprintf(stdout, "basic blocks    %d\n", p.NumBlocks)
	fmt.Fprintf(stdout, "clusters (k)    %d\n", p.Selection.K)
	fmt.Fprintf(stdout, "k-means         %d runs over k=1..%d, %d iterations, converged=%v\n",
		cs.Runs, cs.KTried, cs.Iterations, cs.Converged)
	fmt.Fprintf(stdout, "simpoints       %d (%.0f%% coverage)\n\n",
		p.NumSimPoints(), 100*p.Selection.Coverage)

	fmt.Fprintln(stdout, "rank  interval  start-inst  weight   warm-up")
	for i, pt := range p.Selection.Selected {
		fmt.Fprintf(stdout, "%4d  %8d  %10d  %6.3f  %8d\n",
			i+1, pt.Interval, int64(pt.Interval)*p.Interval, pt.Weight, p.WarmupInsts[i])
	}
}

// writeProfile writes, under dir (nothing when dir is empty), the SimPoint
// 3.0-compatible .bb/.simpoints/.weights files and one serialized
// checkpoint per simulation point, naming each file on stdout.
func writeProfile(stdout io.Writer, dir string, p *core.Profile) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type file struct {
		name  string
		write func(io.Writer) error
	}
	name := p.Workload.Name
	files := []file{
		{name + ".bb", func(w io.Writer) error { return bbv.WriteBB(w, p.Vectors) }},
		{name + ".simpoints", func(w io.Writer) error { return simpoint.WriteSimPoints(w, p.Selection) }},
		{name + ".weights", func(w io.Writer) error { return simpoint.WriteWeights(w, p.Selection) }},
	}
	for i, k := range p.Checkpoints {
		files = append(files, file{fmt.Sprintf("%s-sp%02d.ckpt", name, i+1), k.Serialize})
	}
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			return err
		}
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, buf.Len())
	}
	return nil
}
