package core

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bbv"
	"repro/internal/ckpt"
	"repro/internal/mav"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/sim"
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
	entry, err := w.Entry()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeCkptPayload(cks, warmups, entry.Mem)
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
		cpu, err := w.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeCkptPayload(p.Checkpoints, p.WarmupInsts, cpu.Mem)
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

// TestProfilePassMatchesPerInstructionReference: the profile stage's pass
// feeds its profilers basic-block runs from calls that stop at interval
// boundaries and at capture points. With a warm-up that is no multiple of
// the interval, capture points fall inside basic blocks, where a run must
// stop without ending its block. The bbv payload the pass writes must be
// byte-identical to the one a per-instruction pass encodes — every retired
// record through Observe — under the BBV-only and the bbv+mav spec.
func TestProfilePassMatchesPerInstructionReference(t *testing.T) {
	fc := DefaultFlowConfig()
	for _, name := range []string{"qsort", "sha", "dijkstra"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		iv := w.IntervalSize
		for _, spec := range []sampling.Spec{
			{WarmupPolicy: sampling.WarmupFixed, WarmupInsts: iv/3 + 7},
			{Features: sampling.FeaturesBBVMAV, WarmupPolicy: sampling.WarmupFixed, WarmupInsts: iv + iv/3 + 1},
		} {
			label := fmt.Sprintf("%s/%s/warmup=%d", name, spec.Features, spec.WarmupInsts)
			r := New(fc, WithCache(t.TempDir()), WithSampling(spec))
			if _, err := r.Profile(context.Background(), w); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, _, ok := r.Cache().Get(r.profileKeys(w, spec).bbv)
			if !ok {
				t.Fatalf("%s: Profile wrote no bbv entry", label)
			}

			cpu, err := w.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			bp, mp := bbv.NewProfiler(iv), mav.NewProfiler(iv)
			midBlock := false // some capture point falls inside a basic block
			var i int64
			n, err := cpu.RunTrace(-1, func(rt *sim.Retired) {
				bp.Observe(rt)
				mp.Observe(rt)
				i++
				if at := i + spec.WarmupInsts; at%iv == 0 && at > iv && !rt.Inst.Op.IsBranchOrJump() {
					midBlock = true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !midBlock {
				t.Fatalf("%s: no capture point falls inside a basic block", label)
			}
			bp.Finish()
			mp.Finish()
			var mavs []mav.Vector
			if spec.UseMAV() {
				mavs = mp.Vectors()
			}
			want, err := encodeBBVPayloadSpec(bp.Vectors(), mavs, uint64(n), bp.NumBlocks(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: the profile pass's bbv payload differs from the per-instruction pass's", label)
			}
		}
	}
}

// TestCkptPayloadReusesItsCompressor: encodeCkptPayload reuses its flate
// writer through Reset instead of building a new one (over 1 MB here) for
// every payload, and the reused writer writes a new writer's bytes,
// payload after payload.
func TestCkptPayloadReusesItsCompressor(t *testing.T) {
	w, err := workloads.Build("qsort", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultFlowConfig()).Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	fw, err := flate.NewWriter(&fresh, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCkptPayload(fw, p.Checkpoints, p.WarmupInsts, cpu.Mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := encodeCkptPayload(p.Checkpoints, p.WarmupInsts, cpu.Mem)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh.Bytes()) {
			t.Fatalf("encode %d: the reused writer's payload differs from a new writer's", i)
		}
		// The first call may build the writer; a later one that allocates
		// half a new writer's worth built another.
		if alloc := after.TotalAlloc - before.TotalAlloc; i > 0 && alloc > 1<<19 {
			t.Errorf("encode %d allocated %d bytes for a %d-byte payload", i, alloc, len(got))
		}
	}
}
