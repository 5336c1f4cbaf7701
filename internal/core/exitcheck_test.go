package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// The exit check (checkExit) is the flow's end-to-end oracle: wherever a
// program runs to its halt — the profile pass, a full detailed run, a
// sampled point whose interval ends the program — the exit value must
// equal the workload's Go reference. These tests feed it a program one
// instruction away from its reference.

// offByOne builds tiny bitcount and edits its source before the first
// Program() call, so the program exits with its reference plus one.
func offByOne(t *testing.T) *workloads.Workload {
	t.Helper()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const last = "mv   a0, s3\n"
	if strings.Count(w.Source, last) != 1 {
		t.Fatalf("bitcount source no longer ends in %q", last)
	}
	w.Source = strings.Replace(w.Source, last, last+"\taddi a0, a0, 1\n", 1)
	return w
}

// wantExitMismatch fails unless err is a non-transient *StageError at
// stage that names the workload and both the exit and reference values.
func wantExitMismatch(t *testing.T, err error, stage string, w *workloads.Workload) {
	t.Helper()
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want a *StageError, got %T: %v", err, err)
	}
	if se.Stage != stage || se.Workload != w.Name {
		t.Errorf("mismatch reported at stage=%q workload=%q, want %q/%q", se.Stage, se.Workload, stage, w.Name)
	}
	ref := w.Checksum()
	for _, s := range []string{"workload " + w.Name, fmt.Sprintf("%#x", ref+1), fmt.Sprintf("%#x", ref)} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not name %q", err, s)
		}
	}
	if IsTransient(err) {
		t.Errorf("an exit mismatch is deterministic, got a transient error: %v", err)
	}
}

func TestExitCheckProfile(t *testing.T) {
	w := offByOne(t)
	_, err := New(DefaultFlowConfig()).Profile(context.Background(), w)
	wantExitMismatch(t, err, StageProfile, w)
}

// TestExitCheckSampledPoint: a point that reaches the halt checks the exit
// too. Tiny bitcount's selection includes its last interval, which halts;
// run against the off-by-one program, that point's exit disagrees.
func TestExitCheckSampledPoint(t *testing.T) {
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	r := New(DefaultFlowConfig())
	p, err := r.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(len(p.Vectors)) - 1
	found := false
	for _, c := range p.Checkpoints {
		found = found || c.Interval == last
	}
	if !found {
		t.Fatalf("bitcount's selection no longer includes its last interval %d", last)
	}
	bad := offByOne(t)
	p.Workload = bad
	_, err = r.Run(context.Background(), p, boom.MediumBOOM())
	wantExitMismatch(t, err, StageMeasure, bad)
}

func TestExitCheckRunFull(t *testing.T) {
	w := offByOne(t)
	_, err := New(DefaultFlowConfig()).RunFull(context.Background(), w, boom.MediumBOOM())
	wantExitMismatch(t, err, StageMeasure, w)
}

// TestExitCheckColdSweepIsNotRetried: a cold sweep under a retry budget
// fails on the mismatch once, retries nothing, and caches neither the
// failed profile nor a failed full run.
func TestExitCheckColdSweepIsNotRetried(t *testing.T) {
	w := offByOne(t)
	buildWorkload = func(name string, s workloads.Scale) (*workloads.Workload, error) {
		if name == w.Name {
			return w, nil
		}
		return workloads.Build(name, s)
	}
	t.Cleanup(func() { buildWorkload = workloads.Build })

	dir := t.TempDir()
	reg := metrics.NewRegistry()
	r := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg), WithRetry(2))
	_, err := r.Sweep(context.Background(), tcamp([]string{w.Name}, []boom.Config{boom.MediumBOOM()}))
	wantExitMismatch(t, err, StageProfile, w)
	_, err = r.RunFull(context.Background(), w, boom.MediumBOOM())
	wantExitMismatch(t, err, StageMeasure, w)

	if n := reg.Counter("core.sweep.retries").Value(); n != 0 {
		t.Errorf("core.sweep.retries = %d, want 0", n)
	}
	for _, stage := range []string{"bbv", "full"} {
		if got, _ := filepath.Glob(filepath.Join(dir, stage, "*", "*")); len(got) != 0 {
			t.Errorf("a failed exit check cached %s entries: %v", stage, got)
		}
	}
}
