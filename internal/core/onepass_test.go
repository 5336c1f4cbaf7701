package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// referenceCkptPayload is the checkpoint payload of p taken the plain way:
// for every selected interval, a fresh execution of w run to the interval's
// capture point and captured there.
func referenceCkptPayload(t *testing.T, w *workloads.Workload, p *Profile, warmup int64) []byte {
	t.Helper()
	cks := make([]*ckpt.Checkpoint, len(p.Selection.Selected))
	warmups := make([]int64, len(cks))
	for i, pt := range p.Selection.Selected {
		iv := int64(pt.Interval)
		at := max(0, iv*p.Interval-warmup)
		cpu, err := w.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := cpu.Run(at); err != nil || n != at {
			t.Fatalf("reference run to %d: ran %d, %v", at, n, err)
		}
		cks[i] = ckpt.Capture(cpu)
		cks[i].Interval, cks[i].Weight = iv, pt.Weight
		warmups[i] = iv*p.Interval - at
	}
	payload, err := encodeCkptPayload(cks, warmups)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestProfileRunsOneFunctionalPass: a cold Profile executes the workload
// once — the engine's instruction counter reads exactly the program's
// length, where a separate checkpoint pass would add the capture points —
// and its checkpoints, taken from marks in that pass, are the ones a fresh
// execution captures at each capture point.
func TestProfileRunsOneFunctionalPass(t *testing.T) {
	fc := DefaultFlowConfig()
	for _, name := range []string{"qsort", "sha"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		p, err := New(fc, WithMetrics(reg)).Profile(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("sim.insts").Value(); got != int64(p.TotalInsts) {
			t.Errorf("%s: cold Profile executed %d instructions for a %d-instruction program", name, got, p.TotalInsts)
		}
		got, err := encodeCkptPayload(p.Checkpoints, p.WarmupInsts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceCkptPayload(t, w, p, fc.WarmupInsts)) {
			t.Errorf("%s: one-pass checkpoints differ from fresh captures at the capture points", name)
		}
	}
}

// TestCheckpointStageAloneMatchesOnePass: with only the checkpoint entry
// evicted, a re-Profile serves the profile stage from the cache and runs
// the checkpoint stage's own pass up to the last capture point. Its payload
// must be byte-identical to the one the one-pass cold Profile wrote, and
// both to fresh captures, under every way a capture point is placed.
func TestCheckpointStageAloneMatchesOnePass(t *testing.T) {
	fc := DefaultFlowConfig()
	w, err := workloads.Build("qsort", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	iv := w.IntervalSize
	for _, tc := range []struct {
		name string
		spec sampling.Spec
	}{
		{"zero", sampling.Spec{}},
		{"recommended", sampling.Recommended()},
		// Capture points fall mid-interval and, for the first two
		// intervals, at program start.
		{"warmup>=interval", sampling.Spec{WarmupPolicy: sampling.WarmupFixed, WarmupInsts: iv + iv/3}},
		// Every capture point clamps to program start.
		{"clamped", sampling.Spec{WarmupPolicy: sampling.WarmupFixed, WarmupInsts: 1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			cold := New(fc, WithCache(dir), WithSampling(tc.spec))
			p, err := cold.Profile(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			keys := cold.profileKeys(w, tc.spec)
			onePass, _, ok := cold.Cache().Get(keys.ckpt)
			if !ok {
				t.Fatal("cold Profile wrote no checkpoint entry")
			}
			warmup := tc.spec.ResolveWarmup(p.Interval, fc.WarmupInsts)
			if !bytes.Equal(onePass, referenceCkptPayload(t, w, p, warmup)) {
				t.Fatal("one-pass checkpoints differ from fresh captures at the capture points")
			}
			if tc.name == "clamped" {
				clampedLate := false
				for i, k := range p.Checkpoints {
					clampedLate = clampedLate || (k.InstRet == 0 && k.Interval > 0 && p.WarmupInsts[i] == k.Interval*p.Interval)
				}
				if !clampedLate {
					t.Fatal("no selected interval past the first has its capture point clamped to 0")
				}
			}

			if err := os.RemoveAll(filepath.Join(dir, StageCheckpoint)); err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			again := New(fc, WithCache(dir), WithSampling(tc.spec), WithMetrics(reg))
			if _, err := again.Profile(ctx, w); err != nil {
				t.Fatal(err)
			}
			if reg.Counter("artifact.bbv.hit").Value() != 1 || reg.Counter("artifact.checkpoint.miss").Value() != 1 {
				t.Fatalf("re-Profile did not serve the profile stage and recompute the checkpoint stage: %v", reg.Snapshot())
			}
			if got := reg.Counter("sim.insts").Value(); got >= int64(p.TotalInsts) {
				t.Errorf("the checkpoint stage's pass executed %d instructions, the whole %d-instruction program", got, p.TotalInsts)
			}
			recomputed, _, ok := again.Cache().Get(keys.ckpt)
			if !ok {
				t.Fatal("re-Profile wrote no checkpoint entry")
			}
			if !bytes.Equal(recomputed, onePass) {
				t.Fatal("the checkpoint stage alone wrote a payload that differs from the one-pass payload")
			}
		})
	}
}
