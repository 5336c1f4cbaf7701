// Package engineflags declares the sweep-engine command-line surface shared
// by every binary that drives the flow (cmd/boomflow, cmd/tables, cmd/dse,
// cmd/boomd): caching, supervision, fault injection, parallelism, and
// metrics emission. A new engine option is declared here once and every
// binary picks it up in lockstep instead of each cmd re-wiring (and
// drifting on) its own copy.
//
// Usage:
//
//	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
//	ef := engineflags.Register(fs)
//	ef.RegisterMetrics(fs) // only tools that render a metrics registry
//	fs.Parse(args)
//	opts, err := ef.Options() // validated []core.Option
//
// The engine knobs themselves are the fields of core.Engine, which Flags
// embeds and the flags bind into directly; their validation and the
// knob→option ladder live there. Validation is strict: values that would
// silently misbehave (a non-positive -j, -cache-verify without a cache
// directory, a malformed -chaos plan) are rejected with a clear error
// instead of being clamped or ignored.
package engineflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// Flags holds the parsed flag values: the engine knobs bound straight into
// the embedded core.Engine (declared there, once), the five sampling-spec
// flags, and the optional metrics pair. Daemons hand Flags.Engine on whole
// (cmd/boomd → serve.Config, fabric.Config, fabric.WorkerConfig).
type Flags struct {
	core.Engine

	// Sampling-spec flags (-interval, -features, -sp-dims, -sp-maxk,
	// -warmup). All zero/empty = the legacy flow; Validate folds them into
	// the spec returned by Sampling.
	Interval int64
	Features string
	SPDims   int
	SPMaxK   int
	Warmup   string

	MetricsMode string // "", "text", "json" (set only if RegisterMetrics)
	MetricsOut  string

	fs         *flag.FlagSet
	hasMetrics bool
	sspec      sampling.Spec
}

// Register declares the shared engine flags on fs and returns the value
// holder. Call Validate (or Options, which validates) after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.CacheDir, "cache", "", "artifact cache directory (empty = no caching)")
	fs.BoolVar(&f.CacheVerify, "cache-verify", false, "recompute every cache hit and fail on divergence")
	fs.IntVar(&f.Retries, "retries", 0, "retries per sweep task on transient faults")
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "run every (workload, config) pair despite failures instead of aborting")
	fs.DurationVar(&f.StageTimeout, "stage-timeout", 0, "watchdog deadline per pipeline stage (0 = none)")
	fs.StringVar(&f.Chaos, "chaos", "", "deterministic fault-injection plan SEED:SPEC, e.g. 7:core.measure/sha/*=error (see internal/faultinject)")
	fs.IntVar(&f.Parallelism, "j", 0, "sweep parallelism (0 = all cores); results are bit-identical at any level")
	fs.StringVar(&f.RemoteStore, "remote-store", "", "base URL of a remote artifact store used as a read-through tier over -cache")
	fs.DurationVar(&f.RemoteConnect, "remote-connect-timeout", core.DefaultRemoteConnect, "dial timeout for remote-store/coordinator RPCs")
	fs.DurationVar(&f.RemoteTimeout, "remote-timeout", core.DefaultRemoteTimeout, "response-header timeout per remote RPC (not an overall cap; long polls and large transfers may run longer)")
	fs.Int64Var(&f.Interval, "interval", 0, "sampling interval in instructions (0 = per-workload default)")
	fs.StringVar(&f.Features, "features", "", "SimPoint clustering features: bbv|bbv+mav (empty = bbv)")
	fs.IntVar(&f.SPDims, "sp-dims", 0, "SimPoint projection dimensions (0 = flow default)")
	fs.IntVar(&f.SPMaxK, "sp-maxk", 0, "SimPoint cluster-count ceiling (0 = flow default)")
	fs.StringVar(&f.Warmup, "warmup", "", "warm-up before each measured SimPoint: none, an instruction count, or a factor like 5x (empty = flow default)")
	return f
}

// RegisterMetrics additionally declares -metrics/-metrics-out for tools
// that render a metrics registry after their report.
func (f *Flags) RegisterMetrics(fs *flag.FlagSet) {
	f.hasMetrics = true
	fs.StringVar(&f.MetricsMode, "metrics", "", "emit flow metrics after the report: text|json")
	fs.StringVar(&f.MetricsOut, "metrics-out", "-", "metrics destination (- = stdout)")
}

// Validate must run after fs.Parse. The engine knobs are checked by
// core.Engine.Validate; what is added here exists only on a command line:
// a zero that the Engine reads as "use the default" is refused when it was
// typed out, the sampling flags must assemble into a valid spec, -metrics
// must name a known mode and, when it is set, a -metrics-out file must be
// creatable. Errors name the offending flag.
func (f *Flags) Validate() error {
	var typedZero error
	f.fs.Visit(func(fl *flag.Flag) {
		switch {
		case fl.Name == "j" && f.Parallelism == 0:
			typedZero = fmt.Errorf("-j 0: parallelism must be ≥ 1 (omit -j to use all cores)")
		case fl.Name == "remote-connect-timeout" && f.RemoteConnect == 0,
			fl.Name == "remote-timeout" && f.RemoteTimeout == 0:
			typedZero = fmt.Errorf("-%s 0: must be > 0", fl.Name)
		}
	})
	if typedZero != nil {
		return typedZero
	}
	if err := f.Engine.Validate(); err != nil {
		return err
	}
	var err error
	if f.sspec, err = sampling.ParseSpec(f.Interval, f.Features, f.SPDims, f.SPMaxK, f.Warmup); err != nil {
		return err
	}
	if f.hasMetrics {
		switch f.MetricsMode {
		case "", "text", "json":
		default:
			return fmt.Errorf("unknown -metrics mode %q (text|json)", f.MetricsMode)
		}
		// Open the destination now: a path that cannot be written must
		// cost a usage error, not the whole run EmitMetrics comes after.
		if path := f.metricsFile(); f.MetricsMode != "" && path != "" {
			file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
			if err != nil {
				return fmt.Errorf("-metrics-out: %w", err)
			}
			file.Close()
		}
	}
	return nil
}

// Options validates the flags and returns the Engine's options plus the
// sampling spec. Metrics are not included — callers that want
// instrumentation append core.WithMetrics with the registry from
// MetricsRegistry, so they keep the handle for rendering.
func (f *Flags) Options() ([]core.Option, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	opts, err := f.Engine.Options()
	if err != nil {
		return nil, err
	}
	if !f.sspec.IsZero() {
		opts = append(opts, core.WithSampling(f.sspec))
	}
	return opts, nil
}

// Sampling returns the spec assembled from -interval/-features/-sp-dims/
// -sp-maxk/-warmup (the zero spec when none were set). Call after
// Validate. Daemons thread it into their own defaults (cmd/boomd →
// serve.Config.Sampling); sweep CLIs stamp it on the campaign so it
// becomes part of the fingerprint.
func (f *Flags) Sampling() sampling.Spec { return f.sspec }

// MetricsRegistry returns a fresh registry when -metrics was requested
// (after Validate), or nil when metrics are off.
func (f *Flags) MetricsRegistry() *metrics.Registry {
	if !f.hasMetrics || f.MetricsMode == "" {
		return nil
	}
	return metrics.NewRegistry()
}

// metricsFile returns the -metrics-out path, or "" when metrics go to the
// tool's standard output.
func (f *Flags) metricsFile() string {
	if f.MetricsOut == "-" {
		return ""
	}
	return f.MetricsOut
}

// EmitMetrics renders reg per -metrics/-metrics-out. stdout is the tool's
// standard output (used when -metrics-out is "-" or empty).
func (f *Flags) EmitMetrics(reg *metrics.Registry, stdout io.Writer) error {
	if reg == nil {
		return nil
	}
	dst := stdout
	if path := f.metricsFile(); path != "" {
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		defer file.Close()
		dst = file
	}
	if f.MetricsMode == "json" {
		return reg.WriteJSON(dst)
	}
	return reg.WriteText(dst)
}
