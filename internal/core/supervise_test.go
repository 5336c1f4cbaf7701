package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/boom"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// mustInj parses a chaos spec, failing the test on a grammar error.
func mustInj(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// payloadOf canonically encodes a result for bit-identity comparison.
func payloadOf(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := encodeResultPayload(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepPanicIsolation: an injected panic inside one (workload, config)
// measurement must be recovered into a *StageError with the captured stack
// — never crash the sweep — and under WithKeepGoing every sibling pair
// must still produce its exact fault-free result.
func TestSweepPanicIsolation(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	ctx := context.Background()

	ref, err := New(DefaultFlowConfig()).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	sw, err := New(DefaultFlowConfig(),
		WithKeepGoing(true),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/MediumBOOM=panic")),
	).Sweep(ctx, tcamp(names, cfgs))
	if err == nil {
		t.Fatal("sweep with an injected panic must report an error")
	}
	if sw == nil {
		t.Fatal("keep-going sweep must return partial results alongside the error")
	}
	var se *SweepErrors
	if !errors.As(err, &se) || len(se.Errs) != 1 {
		t.Fatalf("want *SweepErrors with 1 failure, got %v", err)
	}
	var st *StageError
	if !errors.As(se.Errs[0], &st) {
		t.Fatalf("task failure %T is not a *StageError", se.Errs[0])
	}
	if !st.Panicked || len(st.Stack) == 0 {
		t.Errorf("recovered panic must set Panicked and capture the stack: %+v", st)
	}
	if st.Stage != StageMeasure || st.Workload != "sha" || st.Config != "MediumBOOM" {
		t.Errorf("panic identity wrong: stage=%q workload=%q config=%q", st.Stage, st.Workload, st.Config)
	}
	if got := reg.Counter("core.sweep.panics").Value(); got != 1 {
		t.Errorf("core.sweep.panics = %d, want 1", got)
	}
	if got := reg.Counter("core.sweep.tasks_failed").Value(); got != 1 {
		t.Errorf("core.sweep.tasks_failed = %d, want 1", got)
	}
	if sw.Results["MediumBOOM"]["sha"] != nil {
		t.Error("faulted pair must be absent from Results")
	}
	got, want := sw.Results["MediumBOOM"]["bitcount"], ref.Results["MediumBOOM"]["bitcount"]
	if got == nil {
		t.Fatal("sibling pair missing from keep-going results")
	}
	if !bytes.Equal(payloadOf(t, got), payloadOf(t, want)) {
		t.Error("sibling pair not bit-identical to the fault-free run")
	}
	if len(sw.Names) != len(names) || len(sw.ConfigNames) != len(cfgs) {
		t.Errorf("campaign identity not recorded: names=%v configs=%v", sw.Names, sw.ConfigNames)
	}
}

// TestSweepRetryTransient: a transient injected error must be retried with
// backoff and converge on the exact fault-free result.
func TestSweepRetryTransient(t *testing.T) {
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	ctx := context.Background()

	ref, err := New(DefaultFlowConfig()).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	sw, err := New(DefaultFlowConfig(),
		WithRetry(2),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/MediumBOOM=error")),
	).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatalf("transient fault with retries must succeed: %v", err)
	}
	if got := reg.Counter("core.sweep.retries").Value(); got != 1 {
		t.Errorf("core.sweep.retries = %d, want 1", got)
	}
	if got := reg.Counter("faultinject.error").Value(); got != 1 {
		t.Errorf("faultinject.error = %d, want 1", got)
	}
	if !bytes.Equal(payloadOf(t, sw.Results["MediumBOOM"]["sha"]),
		payloadOf(t, ref.Results["MediumBOOM"]["sha"])) {
		t.Error("retried result not bit-identical to the fault-free run")
	}

	// Without retries the same transient fault must fail the task.
	if _, err := New(DefaultFlowConfig(),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/MediumBOOM=error")),
	).Sweep(ctx, tcamp(names, cfgs)); err == nil {
		t.Error("transient fault without a retry budget must fail the sweep")
	} else if !IsTransient(err) {
		t.Errorf("surfaced error must keep its transient marker: %v", err)
	}
}

// TestSweepPermanentNotRetried: permanent faults must fail on the first
// attempt even with a retry budget configured.
func TestSweepPermanentNotRetried(t *testing.T) {
	reg := metrics.NewRegistry()
	_, err := New(DefaultFlowConfig(),
		WithRetry(3),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/MediumBOOM=error-perm")),
	).Sweep(context.Background(), tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()}))
	if err == nil {
		t.Fatal("permanent fault must fail the sweep")
	}
	if IsTransient(err) {
		t.Error("permanent fault must not carry the transient marker")
	}
	if got := reg.Counter("core.sweep.retries").Value(); got != 0 {
		t.Errorf("permanent fault consumed %d retries, want 0", got)
	}
}

// TestSweepDrainAccounting: after a fail-fast error, queued tasks must
// drain unrun — counted in core.sweep.tasks_drained and excluded from the
// tasks counter and the queue-wait histogram.
func TestSweepDrainAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	_, err := New(DefaultFlowConfig(),
		WithParallelism(1),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, "1:core.profile/sha=error-perm")),
	).Sweep(context.Background(), tcamp([]string{"sha", "bitcount"}, []boom.Config{boom.MediumBOOM()}))
	if err == nil {
		t.Fatal("sweep must fail fast on a permanent profile fault")
	}
	var st *StageError
	if !errors.As(err, &st) || st.Stage != StageProfile || st.Workload != "sha" {
		t.Errorf("fail-fast error identity wrong: %v", err)
	}
	if got := reg.Counter("core.sweep.tasks_drained").Value(); got != 1 {
		t.Errorf("core.sweep.tasks_drained = %d, want 1", got)
	}
	if got := reg.Counter("core.sweep.tasks").Value(); got != 1 {
		t.Errorf("core.sweep.tasks = %d, want 1 (drained tasks must not count)", got)
	}
	if got := reg.Histogram("core.sweep.queue_wait_ns").Snapshot().Count; got != 1 {
		t.Errorf("queue-wait histogram has %d samples, want 1 (drained tasks must not observe)", got)
	}
}

// TestSweepCancellationStageError: cancelling mid-sweep must surface a
// *StageError naming the phase in flight that wraps context.Canceled,
// while keep-going still hands back the work completed before the cancel.
func TestSweepCancellationStageError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw, err := New(DefaultFlowConfig(),
		WithParallelism(1),
		WithKeepGoing(true),
		WithTaskHook(func(completed int) {
			if completed == 1 {
				cancel()
			}
		}),
	).Sweep(ctx, tcamp([]string{"sha", "bitcount", "qsort"}, []boom.Config{boom.MediumBOOM()}))
	if err == nil {
		t.Fatal("cancelled sweep must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	var st *StageError
	if !errors.As(err, &st) {
		t.Fatalf("cancellation error %T does not carry a *StageError", err)
	}
	if st.Stage != StageProfile {
		t.Errorf("cancellation must name the phase in flight, got %q", st.Stage)
	}
	if sw == nil {
		t.Fatal("keep-going must return partial results on cancellation")
	}
	if sw.Profiles["sha"] == nil {
		t.Error("work completed before the cancel must be kept")
	}
	if len(sw.Profiles) != 1 {
		t.Errorf("only the pre-cancel task should have completed, got %d profiles", len(sw.Profiles))
	}
}

// cancelAfter is a context whose Err answers nil k times, then Canceled for
// good: a cancellation that lands, deterministically, between any two of
// the engine's checks.
type cancelAfter struct {
	context.Context
	calls, k int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellationNeverSwallowed: wherever a cancellation lands — in
// a phase, or in the window between the two — a fail-fast Sweep returns
// either an error or every requested cell, never a clean, empty sweep.
// The cache is warm so that each of the many sweeps costs milliseconds.
func TestSweepCancellationNeverSwallowed(t *testing.T) {
	camp := tcamp([]string{"sha", "bitcount"}, []boom.Config{boom.MediumBOOM()})
	r := New(DefaultFlowConfig(), WithParallelism(1), WithCache(t.TempDir()))
	if _, err := r.Sweep(context.Background(), camp); err != nil {
		t.Fatal(err)
	}
	whole := &cancelAfter{Context: context.Background(), k: 1 << 30}
	if _, err := r.Sweep(whole, camp); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= whole.calls; k++ {
		sw, err := r.Sweep(&cancelAfter{Context: context.Background(), k: k}, camp)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("k=%d: error %v does not wrap context.Canceled", k, err)
			}
			continue
		}
		for _, n := range camp.Workloads {
			if sw.Results["MediumBOOM"][n] == nil {
				t.Errorf("k=%d: Sweep returned no error and no result for %s", k, n)
			}
		}
	}
}

// TestChaosCorruptArtifact: a payload corrupted between disk and decode
// must be evicted and recomputed, with the final result bit-identical to
// the fault-free run (the cache self-heals; the report never changes).
func TestChaosCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	ctx := context.Background()

	cold, err := New(DefaultFlowConfig(), WithCache(dir)).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	warm, err := New(DefaultFlowConfig(),
		WithCache(dir),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, "5:artifact.read/measure=corrupt:4")),
	).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatalf("corrupted artifact must heal, not fail: %v", err)
	}
	if got := reg.Counter("faultinject.corrupt").Value(); got != 1 {
		t.Errorf("faultinject.corrupt = %d, want 1", got)
	}
	if got := reg.Counter("artifact.evict").Value(); got != 1 {
		t.Errorf("artifact.evict = %d, want 1 (corrupt entry must be evicted)", got)
	}
	if got := reg.Counter("artifact.measure.miss").Value(); got != 1 {
		t.Errorf("artifact.measure.miss = %d, want 1 (evicted entry must recompute)", got)
	}
	if !bytes.Equal(payloadOf(t, warm.Results["MediumBOOM"]["sha"]),
		payloadOf(t, cold.Results["MediumBOOM"]["sha"])) {
		t.Error("recomputed result not bit-identical to the fault-free run")
	}
}

// TestSweepResumesFromCache: crash recovery is the cache. After a failed
// keep-going sweep, a plain rerun of the identical campaign on the same
// cache serves every finished stage from it and recomputes only what never
// finished — no journal, no resume switch.
func TestSweepResumesFromCache(t *testing.T) {
	dir := t.TempDir()
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}
	ctx := context.Background()

	ref, err := New(DefaultFlowConfig()).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: one measurement fails permanently; 5 of 6 tasks finish.
	sw1, err := New(DefaultFlowConfig(),
		WithCache(dir),
		WithKeepGoing(true),
		WithFaultInjector(mustInj(t, "9:core.measure/bitcount/MegaBOOM=error-perm")),
	).Sweep(ctx, tcamp(names, cfgs))
	if err == nil {
		t.Fatal("run 1 must report the injected failure")
	}
	if sw1.Results["MegaBOOM"]["bitcount"] != nil {
		t.Fatal("faulted pair must be absent from run 1")
	}

	// Run 2: rerun the identical campaign without chaos. Finished tasks
	// are cache hits; only the failed pair recomputes, so the detailed
	// model retires exactly that pair's instructions.
	reg := metrics.NewRegistry()
	sw2, err := New(DefaultFlowConfig(),
		WithCache(dir),
		WithMetrics(reg),
	).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatalf("rerun must complete cleanly: %v", err)
	}
	if got := reg.Counter("artifact.measure.miss").Value(); got != 1 {
		t.Errorf("artifact.measure.miss = %d, want 1 (only the unfinished pair recomputes)", got)
	}
	for _, stage := range []string{"bbv", "select", "checkpoint"} {
		if got := reg.Counter("artifact." + stage + ".miss").Value(); got != 0 {
			t.Errorf("artifact.%s.miss = %d, want 0 (the profile chains finished in run 1)", stage, got)
		}
	}
	alone := metrics.NewRegistry()
	if _, err := New(DefaultFlowConfig(), WithMetrics(alone)).Run(ctx, sw2.Profiles["bitcount"], boom.MegaBOOM()); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("boom.retired").Value(), alone.Counter("boom.retired").Value(); got != want || got == 0 {
		t.Errorf("boom.retired = %d, want %d (what the unfinished pair retires on its own, nothing else)", got, want)
	}
	for _, cfg := range cfgs {
		for _, n := range names {
			got, want := sw2.Results[cfg.Name][n], ref.Results[cfg.Name][n]
			if got == nil {
				t.Fatalf("%s/%s missing after the rerun", cfg.Name, n)
			}
			if !bytes.Equal(payloadOf(t, got), payloadOf(t, want)) {
				t.Errorf("%s/%s not bit-identical to the cache-free run", cfg.Name, n)
			}
		}
	}
}

// TestStageTimeoutTransient: a tripped per-stage watchdog must surface as
// a transient error (retryable) while the sweep's own context stays live.
func TestStageTimeoutTransient(t *testing.T) {
	reg := metrics.NewRegistry()
	_, err := New(DefaultFlowConfig(),
		WithStageTimeout(time.Nanosecond),
		WithMetrics(reg),
	).Sweep(context.Background(), tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()}))
	if err == nil {
		t.Fatal("a 1 ns stage watchdog must trip")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !IsTransient(err) {
		t.Error("watchdog timeout must be classified transient")
	}
	if got := reg.Counter("core.sweep.timeouts").Value(); got == 0 {
		t.Error("core.sweep.timeouts not counted")
	}
}

// TestChaosSweepAcceptance is the acceptance drill from the issue: a full
// 11-workload × 3-config sweep under WithKeepGoing with a seeded plan
// injecting a panic, a transient error, and corrupted artifacts. The
// process must never crash, and every non-faulted pair must be
// bit-identical to the fault-free run.
func TestChaosSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite chaos drill")
	}
	dir := t.TempDir()
	names := workloads.Names()
	cfgs := boom.Configs()
	ctx := context.Background()

	// Fault-free reference, populating the cache.
	ref, err := New(DefaultFlowConfig(), WithCache(dir)).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run over the warm cache: every measure read corrupts (forcing
	// evict → recompute), one recomputation panics mid-tick, one throws a
	// transient error that the retry budget absorbs.
	reg := metrics.NewRegistry()
	spec := "42:boom.tick/tarfind/MegaBOOM=panic," +
		"core.measure/dijkstra/LargeBOOM=error," +
		"artifact.read/measure=corrupt:3x*"
	sw, err := New(DefaultFlowConfig(),
		WithCache(dir),
		WithKeepGoing(true),
		WithRetry(2),
		WithMetrics(reg),
		WithFaultInjector(mustInj(t, spec)),
	).Sweep(ctx, tcamp(names, cfgs))
	if err == nil {
		t.Fatal("chaos sweep must report its injected failure")
	}
	var se *SweepErrors
	if !errors.As(err, &se) {
		t.Fatalf("chaos sweep error %T is not *SweepErrors", err)
	}
	if len(se.Errs) != 1 {
		t.Fatalf("want exactly 1 failed task (the panic), got %d: %v", len(se.Errs), se.Errs)
	}
	var st *StageError
	if !errors.As(se.Errs[0], &st) || !st.Panicked {
		t.Fatalf("the one failure must be the recovered panic: %v", se.Errs[0])
	}
	if st.Workload != "tarfind" || st.Config != "MegaBOOM" {
		t.Errorf("panic hit %s/%s, want tarfind/MegaBOOM", st.Workload, st.Config)
	}
	if got := reg.Counter("core.sweep.panics").Value(); got != 1 {
		t.Errorf("core.sweep.panics = %d, want 1", got)
	}
	if got := reg.Counter("core.sweep.retries").Value(); got == 0 {
		t.Error("the transient fault must consume a retry")
	}
	if got := reg.Counter("faultinject.corrupt").Value(); got == 0 {
		t.Error("corrupt rule never fired")
	}
	if got := reg.Counter("artifact.evict").Value(); got == 0 {
		t.Error("corrupted entries must be evicted")
	}
	for _, cfg := range cfgs {
		for _, n := range names {
			if cfg.Name == "MegaBOOM" && n == "tarfind" {
				if sw.Results[cfg.Name][n] != nil {
					t.Error("panicked pair must be absent from Results")
				}
				continue
			}
			got, want := sw.Results[cfg.Name][n], ref.Results[cfg.Name][n]
			if got == nil {
				t.Errorf("%s/%s missing from chaos results", cfg.Name, n)
				continue
			}
			if !bytes.Equal(payloadOf(t, got), payloadOf(t, want)) {
				t.Errorf("%s/%s not bit-identical to the fault-free run", cfg.Name, n)
			}
		}
	}
}
