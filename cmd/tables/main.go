// Command tables regenerates every table and figure of the paper's
// evaluation section from a fresh experiment sweep:
//
//	go run ./cmd/tables                 # full sweep at default scale
//	go run ./cmd/tables -scale tiny     # quick look
//	go run ./cmd/tables -only fig10     # one artifact
//	go run ./cmd/tables -csv -out data  # write CSV files for plotting
//	go run ./cmd/tables -cache .cache   # reuse artifacts across runs
//
// With -cache DIR, every pipeline stage (BBV profile, SimPoint selection,
// checkpoints, measurements) is served from a content-addressed artifact
// cache; a warm-cache rerun skips straight to report generation and its
// output is byte-identical to the cold run. -cache-verify recomputes each
// hit and fails on divergence.
//
// Fault tolerance: -keep-going collects task failures instead of aborting
// (failed pairs render as FAILED cells and the command exits non-zero);
// -retries N and -stage-timeout D add bounded retry and per-stage
// watchdogs; after a crash, rerunning against the same -cache recomputes
// only the stages that had not finished; -chaos SEED:SPEC injects
// deterministic faults (panics, errors, delays, artifact corruption) for
// drills:
//
//	go run ./cmd/tables -scale tiny -keep-going -chaos '7:core.measure/sha/*=panic'
//	go run ./cmd/tables -scale tiny -cache .cache -die-after 5 ; \
//	go run ./cmd/tables -scale tiny -cache .cache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/report"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// run is main minus the process boundary, so tests can drive the full
// command (golden output, cache round-trips) in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "default", "workload scale: tiny|default|paper")
	only := fs.String("only", "", "render only one artifact: table1,table2,fig5..fig11,speedup,phases,sources,takeaways")
	csv := fs.Bool("csv", false, "write CSV files instead of text tables")
	out := fs.String("out", ".", "output directory for -csv")
	quiet := fs.Bool("q", false, "suppress progress output")
	ef := engineflags.Register(fs)
	ef.RegisterMetrics(fs)
	dieAfter := fs.Int("die-after", 0, "crash drill: exit(3) after N completed sweep tasks (rerun on the same -cache to recover)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}

	var progress func(string)
	if !*quiet {
		progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	configs := boom.Configs()
	fc := core.FlowConfigFor(scale)
	opts := []core.Option{core.WithProgress(progress)}
	engineOpts, err := ef.Options()
	if err != nil {
		return err
	}
	opts = append(opts, engineOpts...)
	if *dieAfter > 0 {
		n := *dieAfter
		opts = append(opts, core.WithTaskHook(func(completed int) {
			if completed >= n {
				fmt.Fprintf(stderr, "die-after: exiting after %d completed tasks\n", completed)
				os.Exit(3)
			}
		}))
	}
	reg := ef.MetricsRegistry()
	opts = append(opts, core.WithMetrics(reg))
	camp := core.NewCampaign(workloads.Names(), configs, scale)
	camp.Sampling = ef.Sampling()
	sw, err := core.New(fc, opts...).Sweep(context.Background(), camp)
	var failedTasks int
	if err != nil {
		var se *core.SweepErrors
		if sw != nil && errors.As(err, &se) {
			// Keep-going: render what succeeded, report what did not, and
			// exit non-zero after the tables are out.
			failedTasks = len(se.Errs)
			fmt.Fprintf(stderr, "sweep: %d task(s) failed:\n", failedTasks)
			for _, e := range se.Errs {
				fmt.Fprintf(stderr, "  %v\n", e)
			}
		} else {
			return err
		}
	}

	artifacts := []struct {
		key string
		t   *report.Table
	}{
		{"table1", report.TableI(configs)},
		{"table2", report.TableII(sw)},
		{"fig5", report.FigComponentPower(sw, "MediumBOOM")},
		{"fig6", report.FigComponentPower(sw, "LargeBOOM")},
		{"fig7", report.FigComponentPower(sw, "MegaBOOM")},
		{"fig8", report.FigSlotPower(sw, "MegaBOOM", "dijkstra", "sha")},
		{"fig9", report.FigContribution(sw)},
		{"fig10", report.FigIPC(sw)},
		{"fig11", report.FigPerfPerWatt(sw)},
		{"speedup", report.SpeedupTable(sw)},
		{"phases", report.PhaseProfile(sw, "MegaBOOM", "sha")},
		{"sources", report.PowerSources(sw)},
	}
	if *only == "" || strings.EqualFold(*only, "takeaways") {
		if !*csv {
			fmt.Fprintln(stdout, report.Takeaways(sw))
		}
	}
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.key) {
			continue
		}
		if *csv {
			path := filepath.Join(*out, a.key+".csv")
			if err := os.WriteFile(path, []byte(a.t.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		} else {
			fmt.Fprintln(stdout, a.t.Render())
		}
	}

	if err := ef.EmitMetrics(reg, stdout); err != nil {
		return err
	}
	if failedTasks > 0 {
		return fmt.Errorf("sweep completed with %d failed task(s); tables above mark them FAILED", failedTasks)
	}
	return nil
}
