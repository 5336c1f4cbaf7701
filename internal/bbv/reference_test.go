package bbv

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// naiveProfiler is the reference the run-length Profiler is checked
// against: one map increment per retired instruction, nothing deferred.
type naiveProfiler struct {
	interval int64
	ids      map[uint64]int
	current  Vector
	count    int64
	blockID  int
	inBlock  bool
	vectors  []Vector
}

func newNaiveProfiler(interval int64) *naiveProfiler {
	return &naiveProfiler{interval: interval, ids: map[uint64]int{}, current: Vector{}}
}

func (p *naiveProfiler) observe(r *sim.Retired) {
	if !p.inBlock {
		id, ok := p.ids[r.PC]
		if !ok {
			id = len(p.ids)
			p.ids[r.PC] = id
		}
		p.blockID, p.inBlock = id, true
	}
	p.current[p.blockID]++
	p.count++
	if r.Inst.Op.IsBranchOrJump() {
		p.inBlock = false
	}
	if p.count >= p.interval {
		p.flush()
	}
}

func (p *naiveProfiler) flush() {
	p.vectors = append(p.vectors, p.current)
	p.current = Vector{}
	p.count = 0
	p.inBlock = false
}

func (p *naiveProfiler) finish() {
	if p.count > 0 {
		p.flush()
	}
}

// TestProfilerMatchesNaiveReference feeds every workload's retirement
// stream to the Profiler and to the per-instruction reference at three
// interval sizes (one far below a loop body's period, the tiny-scale
// default, one that divides nothing) and requires identical block
// numbering and bit-identical weights.
func TestProfilerMatchesNaiveReference(t *testing.T) {
	intervals := []int64{997, 20_000, 77_777}
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := w.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Profiler, len(intervals))
		want := make([]*naiveProfiler, len(intervals))
		for i, iv := range intervals {
			got[i], want[i] = NewProfiler(iv), newNaiveProfiler(iv)
		}
		if _, err := cpu.RunTrace(-1, func(r *sim.Retired) {
			for i := range intervals {
				got[i].Observe(r)
				want[i].observe(r)
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, iv := range intervals {
			got[i].Finish()
			want[i].finish()
			g, n := got[i], want[i]
			if g.NumBlocks() != len(n.ids) {
				t.Errorf("%s/%d: %d blocks, reference %d", name, iv, g.NumBlocks(), len(n.ids))
			}
			if len(g.Vectors()) != len(n.vectors) {
				t.Fatalf("%s/%d: %d intervals, reference %d", name, iv, len(g.Vectors()), len(n.vectors))
			}
			for k, v := range g.Vectors() {
				ref := n.vectors[k]
				if len(v) != len(ref) {
					t.Errorf("%s/%d: interval %d has %d blocks, reference %d", name, iv, k, len(v), len(ref))
					continue
				}
				for id, wgt := range v {
					if rw, ok := ref[id]; !ok || math.Float64bits(rw) != math.Float64bits(wgt) {
						t.Errorf("%s/%d: interval %d block %d weight %v, reference %v (present %v)", name, iv, k, id, wgt, rw, ok)
					}
				}
			}
		}
	}
}
