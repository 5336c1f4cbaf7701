// Command dse runs a parametric design-space exploration and reports the
// Pareto frontier of IPC vs performance-per-watt per workload, plus the
// efficiency-optimal design point each workload should pick:
//
//	dse -axes 'rob=48,64,96,128;predictor=tage,gshare'
//	dse -workloads sha,qsort -base mega -override 'l2-kib=1024' -axes 'int-iq=16,24,32'
//	dse -addr 127.0.0.1:8080 -axes 'rob=64,96' -json
//	dse -params
//
// The base config plus the cross product of the axes expands into named,
// validated design points (internal/dse); the campaign then runs either
// in-process through core.Runner or, with -addr, through a boomd daemon
// (POST /v1/sweeps with the parametric v2 body). Both paths produce the
// same canonical result bytes, so the frontier is bit-identical however
// the campaign executed. -json emits the canonical frontier encoding; the
// default is a human-readable table. The in-process path takes the shared
// engine flags (internal/engineflags): with -cache DIR the profile stages
// are shared across runs and design points through the artifact cache.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engineflags"
	"repro/internal/serve"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workloads", "", "comma-separated workload names (empty = all)")
	base := fs.String("base", "", "base design point (default MediumBOOM)")
	axesFlag := fs.String("axes", "", "sweep axes: 'param=v1,v2;param2=v3,v4'")
	ovFlag := fs.String("override", "", "fixed overrides: 'param=v;param2=v2'")
	scaleFlag := fs.String("scale", "tiny", "workload scale: tiny|default|paper")
	addr := fs.String("addr", "", "run through a boomd daemon at HOST:PORT instead of in-process")
	jsonOut := fs.Bool("json", false, "emit the canonical frontier JSON instead of the text table")
	params := fs.Bool("params", false, "list the sweepable parameters and exit")
	quiet := fs.Bool("q", false, "suppress progress output")
	// The engine flags govern the in-process path; with -addr the daemon's
	// own engine runs the campaign and only the sampling flags travel.
	ef := engineflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *params {
		for _, line := range dse.Params() {
			fmt.Fprintln(stdout, line)
		}
		return nil
	}
	if *axesFlag == "" && *ovFlag == "" && *base == "" {
		return fmt.Errorf("nothing to explore: give -axes (and optionally -base, -override), or -params for the surface")
	}

	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	spec := dse.Spec{Base: *base}
	if spec.Axes, err = dse.ParseAxes(*axesFlag); err != nil {
		return err
	}
	if spec.Overrides, err = dse.ParseOverrides(*ovFlag); err != nil {
		return err
	}
	names := serve.SplitList(*wl)
	if len(names) == 0 {
		names = workloads.Names()
	}
	if err := ef.Validate(); err != nil {
		return err
	}

	var result serve.SweepResult
	var raw []byte
	if *addr != "" {
		// Submit runLocal's campaign exactly — same spec fields, warm-up in
		// its CLI spelling — so both paths fingerprint identically, then
		// long-poll the canonical result.
		req := serve.RequestFromSpec(spec)
		req.Workloads, req.Scale = names, *scaleFlag
		req.Sampling = serve.SamplingBlock(ef.Interval, ef.Features, ef.SPDims, ef.SPMaxK, ef.Warmup)
		c := serve.NewClient(*addr)
		var st serve.Status
		if st, err = c.Submit(req); err == nil {
			raw, err = c.Result(st.ID, true)
		}
	} else {
		raw, err = runLocal(names, spec, ef, scale, *quiet, stderr)
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &result); err != nil {
		return fmt.Errorf("decoding sweep result: %w", err)
	}

	cells := make([]dse.Cell, 0, len(result.Rows))
	for _, row := range result.Rows {
		cells = append(cells, dse.Cell{
			Workload: row.Workload, Config: row.Config,
			IPC: row.IPC, PowerMW: row.PowerMW, PerfPerWatt: row.PerfPerWatt,
		})
	}
	rep := &dse.Report{
		Campaign:     result.ID,
		DesignPoints: len(result.Configs),
		Workloads:    dse.Frontiers(cells),
	}
	if *jsonOut {
		b, err := dse.EncodeReport(rep)
		if err != nil {
			return err
		}
		_, werr := stdout.Write(b)
		return werr
	}
	fmt.Fprint(stdout, dse.FormatReport(rep))
	return nil
}

// runLocal expands the spec and drives the campaign through core.Runner,
// then encodes with the serving encoder so the bytes match a boomd run of
// the same campaign.
func runLocal(names []string, spec dse.Spec, ef *engineflags.Flags, scale workloads.Scale, quiet bool, stderr io.Writer) ([]byte, error) {
	cfgs, err := dse.Expand(spec)
	if err != nil {
		return nil, err
	}
	opts, err := ef.Options()
	if err != nil {
		return nil, err
	}
	camp := core.NewCampaign(names, cfgs, scale)
	camp.Sampling = ef.Sampling()
	if err := camp.Validate(); err != nil {
		return nil, err
	}
	opts = append(opts, core.WithScale(scale))
	if !quiet {
		fmt.Fprintf(stderr, "exploring %d design point(s) × %d workload(s) at %s scale\n",
			len(cfgs), len(names), scale)
		opts = append(opts, core.WithProgress(func(s string) { fmt.Fprintln(stderr, s) }))
	}
	r := core.New(core.FlowConfigFor(scale), opts...)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		return nil, err
	}
	return serve.EncodeSweep(r.CampaignID(camp), scale, sw)
}
