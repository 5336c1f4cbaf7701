// Package core implements the paper's contribution: the end-to-end
// SimPoint-based RTL power/performance evaluation flow (Figs. 3 and 4).
//
// For one workload the flow is:
//
//  1. Profile — execute the workload on the functional simulator while the
//     BBV profiler splits it into intervals (gem5's role).
//  2. Select — cluster the interval BBVs and pick the representative
//     simulation points with ≥90 % coverage (SimPoint 3.0's role).
//  3. Checkpoint — re-execute functionally and capture an architectural
//     checkpoint shortly before each simulation point (Spike's role).
//  4. Measure — restore each checkpoint into the BOOM timing model, warm up
//     caches and predictors, then measure the interval; weight each
//     interval's activity by its cluster weight (Chipyard+Verilator role).
//  5. Estimate — convert the weighted activity into per-component power
//     through the Joules-style flow in internal/power.
//
// The same API also supports full-workload detailed simulation, which is
// what the SimPoint methodology is being compared against (the paper's 45×
// speedup and its accuracy validation).
//
// The flow is driven through a Runner constructed with New and functional
// options (WithScale, WithMetrics, WithParallelism, WithProgress,
// and the supervision/caching options — see engine.go). Every Runner method
// takes a context.Context with cooperative cancellation at interval
// boundaries, and every stage is wrapped in a span when a metrics registry
// is attached.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asap7"
	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/mav"
	"repro/internal/power"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// FlowConfig parameterizes the flow.
type FlowConfig struct {
	SimPoint    simpoint.Config
	WarmupInsts int64 // detailed-model warm-up before each measured interval
	Lib         asap7.Library
}

// DefaultFlowConfig mirrors the paper's setup: SimPoint 3.0 defaults with
// ≥90 % coverage and a warm-up before each simulation point.
func DefaultFlowConfig() FlowConfig {
	return FlowConfigFor(workloads.ScaleTiny)
}

// FlowConfigFor scales the flow with the workload scale: the warm-up window
// tracks the paper's proportion of its 1–2 M-instruction intervals, and the
// cluster cap tightens at experiment scales — the paper's Table II lands at
// 1–3 simulation points per benchmark, which requires phases to merge
// rather than fragment across interval-boundary drift.
func FlowConfigFor(scale workloads.Scale) FlowConfig {
	sp := simpoint.DefaultConfig()
	warm := int64(10_000)
	switch scale {
	case workloads.ScaleDefault:
		warm = 50_000
		sp.MaxK = 10
	case workloads.ScalePaper:
		warm = 500_000
		sp.MaxK = 8
	}
	return FlowConfig{
		SimPoint:    sp,
		WarmupInsts: warm,
		Lib:         asap7.Default(),
	}
}

// Profile is the result of steps 1–3 for one workload (config-independent).
//
// Workload, Sampling, Interval, Selection, WallNS and CacheKey are always
// set. The payload fields — TotalInsts, Vectors, MAVs, NumBlocks (the bbv
// stage's) and Checkpoints, WarmupInsts (the checkpoint stage's) — are set
// by Runner.Profile, and by Runner.Sweep whenever a cell of the workload
// had to be measured. A Sweep that found every cell of the workload cached
// reads the two stages' recorded costs and leaves their payloads unread:
// those fields stay nil (TotalInsts is filled from a cached Result), and
// load fetches them should a Run on the profile need to measure after all.
type Profile struct {
	Workload    *workloads.Workload
	Sampling    sampling.Spec // spec the profile was taken under (zero = legacy)
	Interval    int64         // resolved interval length (spec override or Workload.IntervalSize)
	TotalInsts  uint64
	Vectors     []bbv.Vector
	MAVs        []mav.Vector // per-interval memory-access vectors; nil unless Sampling.UseMAV
	NumBlocks   int
	Selection   *simpoint.Result
	Checkpoints []*ckpt.Checkpoint // aligned with Selection.Selected
	WarmupInsts []int64            // actual warm-up available per checkpoint
	WallNS      int64              // compute wall-clock of steps 1–3 (cache hits report the original cost)
	CacheKey    string             // artifact-chain fingerprint of steps 1–3; empty without a cache

	mu      sync.Mutex                  // serializes load
	pending func(context.Context) error // runs the stages whose payloads are unread; nil when none are
}

// load makes every payload field available, once: concurrent cells of one
// workload wait for the first to finish, and a failed load is retried by
// the next caller.
func (p *Profile) load(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending == nil {
		return nil
	}
	if err := p.pending(ctx); err != nil {
		return err
	}
	p.pending = nil
	return nil
}

// NumSimPoints returns the number of selected simulation points (the
// "# Simpoints" column of Table II).
func (p *Profile) NumSimPoints() int { return len(p.Selection.Selected) }

// PointResult is the measurement of one simulation point — the phase-level
// view the SimPoint methodology provides for free.
type PointResult struct {
	Interval int64   // interval index in the program
	Weight   float64 // cluster weight
	IPC      float64
	PowerMW  float64 // tile power during this phase
}

// Result is one (workload, config) evaluation.
type Result struct {
	Workload     string
	Suite        string
	ConfigName   string
	Mode         string // "simpoint" or "full"
	TotalInsts   uint64 // full workload length
	IntervalSize int64
	NumPoints    int
	Coverage     float64
	K            int

	Stats  *boom.Stats   // weighted-aggregate activity
	Power  *power.Report // per-component power
	Slots  []float64     // per-int-issue-slot power (Fig. 8)
	Points []PointResult // per-simulation-point phase measurements

	DetailedInsts uint64 // instructions run on the detailed model
	MeasureWallNS int64  // measured wall-clock of steps 4–5
}

// IPC returns the (weighted) instructions per cycle.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// TotalPowerMW returns tile power.
func (r *Result) TotalPowerMW() float64 { return r.Power.TotalMW() }

// PerfPerWatt returns IPC per watt (Fig. 11's metric).
func (r *Result) PerfPerWatt() float64 {
	return r.IPC() / (r.TotalPowerMW() / 1000.0)
}

// traceSource adapts a functional CPU into a timing-model trace source. It
// executes a batch of instructions at a time into buf and hands the
// records out one by one, so the functional CPU runs up to traceBatch-1
// instructions ahead of the timing model's fetch. That look-ahead is
// invisible: nothing reads the functional CPU's state once a detailed run
// has started. A functional-step divergence ends the trace when the timing
// model reaches the faulting instruction — not when the batch holding it
// was filled — and is captured in err for the caller to surface as a stage
// failure (never a panic).
type traceSource struct {
	cpu     *sim.CPU
	err     error
	fillErr error // fault met while filling buf; surfaces once buf[:n] drains
	n, pos  int   // buf[pos:n] are the records not yet handed out
	buf     [traceBatch]sim.Retired
}

// traceBatch is how many instructions the trace source executes at a time.
const traceBatch = 64

func (t *traceSource) next(r *sim.Retired) bool {
	if t.pos == t.n && !t.refill() {
		return false
	}
	*r = t.buf[t.pos]
	t.pos++
	return true
}

// refill executes the next batch once buf has drained and reports whether
// it produced a record. A halted CPU produces none, forever; a fault met
// by an earlier fill surfaces now, its batch having drained.
func (t *traceSource) refill() bool {
	if t.err != nil {
		return false
	}
	if t.fillErr == nil {
		t.n, t.fillErr = t.cpu.Fill(t.buf[:])
		t.pos = 0
		if t.n > 0 {
			return true
		}
	}
	if t.fillErr != nil {
		t.err = fmt.Errorf("core: functional step diverged: %w", t.fillErr)
	}
	return false
}

// Sweep holds a full experiment: every workload × configuration. Under
// WithKeepGoing the maps may be partial — a failed profile leaves its
// workload out of Profiles, a failed measurement leaves its (config,
// workload) cell out of Results — while Names and ConfigNames always
// record the full campaign as requested, so reports can render explicit
// FAILED cells instead of silently shrinking.
type Sweep struct {
	Flow        FlowConfig
	Scale       workloads.Scale
	Sampling    sampling.Spec                 // effective sampling spec (zero = legacy defaults)
	Names       []string                      // requested workloads, request order
	ConfigNames []string                      // requested configs, request order
	Profiles    map[string]*Profile           // by workload (may be partial)
	Results     map[string]map[string]*Result // [config][workload] (may be partial)
}

// SpeedupReport quantifies the simulation-time reduction of the SimPoint
// methodology (the paper's 45×): detailed-model instructions with SimPoints
// vs simulating every workload in full, plus the measured wall-clock cost
// of the flow so the reported speedup is backed by real time, not
// instruction counts alone.
type SpeedupReport struct {
	FullInsts     uint64
	DetailedInsts uint64
	ProfileWallNS int64 // measured wall-clock of functional profiling (steps 1–3)
	MeasureWallNS int64 // measured wall-clock of detailed measurement (steps 4–5)
}

// Speedup returns the instruction-count reduction factor.
func (s SpeedupReport) Speedup() float64 {
	if s.DetailedInsts == 0 {
		return 0
	}
	return float64(s.FullInsts) / float64(s.DetailedInsts)
}

// FlowWallNS returns the measured wall-clock of the whole SimPoint flow.
func (s SpeedupReport) FlowWallNS() int64 { return s.ProfileWallNS + s.MeasureWallNS }

// EstFullWallNS estimates the wall-clock of simulating everything on the
// detailed model, from the measured per-instruction detailed-model cost.
func (s SpeedupReport) EstFullWallNS() int64 {
	if s.DetailedInsts == 0 {
		return 0
	}
	perInst := float64(s.MeasureWallNS) / float64(s.DetailedInsts)
	return int64(perInst * float64(s.FullInsts))
}

// WallSpeedup returns the measured wall-clock speedup of the SimPoint flow
// (profiling + detailed measurement) over an estimated full detailed
// simulation. Zero when no wall-clock data was recorded.
func (s SpeedupReport) WallSpeedup() float64 {
	flow := s.FlowWallNS()
	if flow == 0 || s.MeasureWallNS == 0 || s.DetailedInsts == 0 {
		return 0
	}
	return float64(s.EstFullWallNS()) / float64(flow)
}

// SpeedupOf summarizes a sweep's simulation-cost saving. Each workload's
// profiling wall-clock is counted once (profiles are shared across
// configs); detailed measurement wall-clock is summed per (config,
// workload) pair.
func (sw *Sweep) SpeedupOf() SpeedupReport {
	var rep SpeedupReport
	for _, p := range sw.Profiles {
		rep.ProfileWallNS += p.WallNS
	}
	for _, perCfg := range sw.Results {
		for _, r := range perCfg {
			rep.FullInsts += r.TotalInsts
			rep.DetailedInsts += r.DetailedInsts
			rep.MeasureWallNS += r.MeasureWallNS
		}
	}
	return rep
}

// Accuracy compares the SimPoint-estimated IPC against a full detailed run
// for one workload/config (the methodology's validation).
type Accuracy struct {
	Workload    string
	ConfigName  string
	SimPointIPC float64
	FullIPC     float64
}

// ErrorPct returns the relative IPC error in percent.
func (a Accuracy) ErrorPct() float64 {
	if a.FullIPC == 0 {
		return 0
	}
	return 100 * (a.SimPointIPC - a.FullIPC) / a.FullIPC
}
