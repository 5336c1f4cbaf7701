package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// TestRunnerStageSpans is the end-to-end observability check: every flow
// stage must emit a non-zero span, and the stage spans must account for
// (nearly) all of the flow's wall-clock time. Per-point warmup, measure
// and estimate laps run concurrently on a multi-core host, so the
// accounting is stated in terms that hold at any -cpu: no stage outlasts
// the flow, the stages' extents leave (nearly) no flow time unexplained,
// and their summed busy time fits the flow's wall-clock times the
// Runner's worker budget. At -cpu 1 these collapse to "the stages sum to
// the flow".
func TestRunnerStageSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(DefaultFlowConfig(), WithMetrics(reg))
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := r.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctx, p, boom.MediumBOOM())
	if err != nil {
		t.Fatal(err)
	}

	flow := reg.Span("flow")
	total := flow.DurationNS()
	if total <= 0 {
		t.Fatal("flow span has no duration")
	}
	if flow.Peak() != 1 || flow.BusyNS() != total {
		t.Errorf("flow laps are serial here: peak %d, busy %d, extent %d", flow.Peak(), flow.BusyNS(), total)
	}
	budget := runtime.GOMAXPROCS(0) // the Runner's default -j
	seen := map[string]bool{}
	var extents, busy int64
	for _, c := range flow.Children() {
		d, b, peak := c.DurationNS(), c.BusyNS(), c.Peak()
		seen[c.Name()] = d > 0
		if d > total {
			t.Errorf("stage %q extent %d ns outlasts the flow (%d ns)", c.Name(), d, total)
		}
		if peak < 1 || peak > budget {
			t.Errorf("stage %q peaked at %d concurrent laps under a budget of %d", c.Name(), peak, budget)
		}
		if b < d || b > d*int64(peak) {
			t.Errorf("stage %q busy %d ns outside [extent %d, extent x peak %d]", c.Name(), b, d, peak)
		}
		extents += d
		busy += b
	}
	for _, stage := range Stages() {
		if !seen[stage] {
			t.Errorf("stage span %q missing or zero", stage)
		}
	}
	if frac := float64(extents) / float64(total); frac < 0.85 {
		t.Errorf("stage spans cover %.1f%% of flow wall-clock (want ~100%%)", 100*frac)
	}
	if frac := float64(busy) / (float64(total) * float64(budget)); frac > 1.02 {
		t.Errorf("stage busy time is %.1f%% of flow wall-clock x %d workers (want <= 100%%)", 100*frac, budget)
	}

	// Throughput and stage-adjacent instrumentation must be populated.
	for _, counter := range []string{
		"sim.insts", "sim.wall_ns",
		"boom.retired", "boom.cycles",
		"power.estimates",
		"simpoint.kmeans.runs", "simpoint.kmeans.iterations",
	} {
		if v := reg.Counter(counter).Value(); v <= 0 {
			t.Errorf("counter %q = %d, want > 0", counter, v)
		}
	}
	if reg.Histogram("sim.kips").Snapshot().Count == 0 {
		t.Error("functional KIPS histogram empty")
	}
	if reg.Histogram("boom.kips").Snapshot().Count == 0 {
		t.Error("detailed KIPS histogram empty")
	}
	if k := reg.Gauge("simpoint.k").Value(); int(k) != p.Selection.K {
		t.Errorf("simpoint.k gauge %v, want %d", k, p.Selection.K)
	}

	// Wall-clock accounting feeding SpeedupReport.
	if p.WallNS <= 0 {
		t.Error("Profile.WallNS not measured")
	}
	if res.MeasureWallNS <= 0 {
		t.Error("Result.MeasureWallNS not measured")
	}
}

// TestRunnerCancellation: a canceled context must stop the flow at the
// next interval boundary with a wrapped, stage-identified error.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(DefaultFlowConfig())
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Profile(ctx, w); err == nil {
		t.Fatal("Profile must fail on a canceled context")
	} else {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
		var se *StageError
		if !errors.As(err, &se) {
			t.Errorf("error %T is not a *StageError", err)
		} else if se.Stage != StageProfile || se.Workload != "sha" {
			t.Errorf("wrong identity: stage=%q workload=%q", se.Stage, se.Workload)
		}
	}

	// Run on an existing profile: canceled between simulation points.
	p, err := r.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, p, boom.MediumBOOM()); err == nil {
		t.Fatal("Run must fail on a canceled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("Run error %v does not wrap context.Canceled", err)
	}

	if _, err := r.RunFull(ctx, w, boom.MediumBOOM()); err == nil {
		t.Fatal("RunFull must fail on a canceled context")
	}
	if _, err := r.Sweep(ctx, tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()})); err == nil {
		t.Fatal("Sweep must fail on a canceled context")
	}
}

// TestStageErrorIdentity: flow errors must carry workload+config+stage
// identity and unwrap to the cause.
func TestStageErrorIdentity(t *testing.T) {
	fc := DefaultFlowConfig()
	fc.SimPoint.Dims = 0 // invalid: surfaces from the select stage
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(fc).Profile(context.Background(), w)
	if err == nil {
		t.Fatal("invalid simpoint config must error")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *StageError", err)
	}
	if se.Stage != StageSelect || se.Workload != "sha" {
		t.Errorf("identity stage=%q workload=%q", se.Stage, se.Workload)
	}
	if se.Unwrap() == nil {
		t.Error("StageError must unwrap to its cause")
	}
	for _, want := range []string{StageSelect, "sha"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSweepParallelismBitIdentical: a metrics-instrumented sweep at n=1
// must be bit-identical to one at n=NumCPU (the determinism contract of
// WithParallelism).
func TestSweepParallelismBitIdentical(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}
	ctx := context.Background()

	serialReg := metrics.NewRegistry()
	serial, err := New(DefaultFlowConfig(), WithParallelism(1), WithMetrics(serialReg)).
		Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	parReg := metrics.NewRegistry()
	par, err := New(DefaultFlowConfig(), WithParallelism(runtime.NumCPU()), WithMetrics(parReg)).
		Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		for _, n := range names {
			rs, rp := serial.Results[cfg.Name][n], par.Results[cfg.Name][n]
			if rs.Stats.Cycles != rp.Stats.Cycles || rs.IPC() != rp.IPC() ||
				rs.TotalPowerMW() != rp.TotalPowerMW() {
				t.Errorf("%s/%s differs between n=1 and n=NumCPU", cfg.Name, n)
			}
		}
	}
	// Scheduling metrics must be recorded in both runs.
	wantTasks := int64(len(names) + len(names)*len(cfgs))
	for _, reg := range []*metrics.Registry{serialReg, parReg} {
		if got := reg.Counter("core.sweep.tasks").Value(); got != wantTasks {
			t.Errorf("core.sweep.tasks = %d, want %d", got, wantTasks)
		}
		if reg.Histogram("core.sweep.queue_wait_ns").Snapshot().Count != wantTasks {
			t.Error("queue-wait histogram incomplete")
		}
		if reg.Counter("core.sweep.worker.00.busy_ns").Value() <= 0 {
			t.Error("worker 0 busy time not recorded")
		}
	}
}

// TestSpeedupWallClock: the sweep's speedup report must carry measured
// wall-clock alongside the instruction-count ratio.
func TestSpeedupWallClock(t *testing.T) {
	sw, err := New(DefaultFlowConfig()).
		Sweep(context.Background(), tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()}))
	if err != nil {
		t.Fatal(err)
	}
	rep := sw.SpeedupOf()
	if rep.Speedup() <= 0 {
		t.Error("instruction-count speedup missing")
	}
	if rep.ProfileWallNS <= 0 || rep.MeasureWallNS <= 0 {
		t.Errorf("wall-clock not measured: profile=%d measure=%d",
			rep.ProfileWallNS, rep.MeasureWallNS)
	}
	if rep.WallSpeedup() <= 0 || rep.EstFullWallNS() <= 0 {
		t.Errorf("wall speedup not derivable: %+v", rep)
	}
	if rep.FlowWallNS() != rep.ProfileWallNS+rep.MeasureWallNS {
		t.Error("FlowWallNS must sum profile and measure wall time")
	}
}

// TestUtilizationFinite: the worker-utilization ratio must be finite for
// every input, including the degenerate zero-wall-clock sweep that used
// to produce NaN/±Inf and kill -metrics json.
func TestUtilizationFinite(t *testing.T) {
	for _, tc := range []struct {
		busy, wall int64
		want       float64
	}{
		{0, 0, 0},
		{5, 0, 0}, // instant sweep: busy recorded, wall rounded to 0
		{0, 100, 0},
		{-1, -1, 0},
		{50, 100, 0.5},
		{120, 100, 1}, // clock skew: busy may marginally exceed wall
	} {
		got := utilization(tc.busy, tc.wall)
		if got != tc.want {
			t.Errorf("utilization(%d, %d) = %v, want %v", tc.busy, tc.wall, got, tc.want)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("utilization(%d, %d) = %v is not finite", tc.busy, tc.wall, got)
		}
	}
}

// TestZeroDurationSweepMetricsJSON: a degenerate sweep (zero tasks, ~zero
// wall-clock) must leave the registry in a state json.Marshal accepts —
// the regression here was a NaN utilization gauge aborting the whole
// -metrics json emission.
func TestZeroDurationSweepMetricsJSON(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(DefaultFlowConfig(), WithMetrics(reg))
	if _, err := r.Sweep(context.Background(), tcamp(nil, nil)); err != nil {
		t.Fatal(err)
	}
	// Force the exact degenerate division a zero-duration phase produces.
	reg.Gauge("core.sweep.worker.00.util").Set(utilization(5, 0))
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("zero-duration sweep metrics do not marshal: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("emitted metrics are not valid JSON:\n%s", buf.Bytes())
	}
}
