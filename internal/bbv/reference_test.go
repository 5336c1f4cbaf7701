package bbv

import (
	"fmt"
	"math"
	"math/rand"
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
// stream to the per-instruction reference at three interval sizes (one far
// below a loop body's period, the tiny-scale default, one that divides
// nothing) and requires the Profiler to number the same blocks and give
// bit-identical weights, fed both ways: one record at a time through
// Observe, and block runs through ObserveBlocks from RunBlocks calls that
// stop at every interval boundary and, in between, at random points inside
// basic blocks, where a capture point would stop them.
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
		rng := rand.New(rand.NewSource(int64(len(name))))
		for i, iv := range intervals {
			got[i].Finish()
			want[i].finish()
			matchReference(t, fmt.Sprintf("%s/%d/Observe", name, iv), got[i], want[i])

			cpu, err := w.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			blk := NewProfiler(iv)
			observe := func(bs []sim.Block, _ []sim.MemRef) { blk.ObserveBlocks(bs) }
			for done := int64(0); !cpu.Halted; {
				step := iv - done%iv
				if rng.Intn(2) == 0 {
					step = min(step, 1+rng.Int63n(iv))
				}
				n, err := cpu.RunBlocks(step, false, observe)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				done += n
			}
			blk.Finish()
			matchReference(t, fmt.Sprintf("%s/%d/ObserveBlocks", name, iv), blk, want[i])
		}
	}
}

// matchReference requires g's block numbering and weights to be the
// reference's, bit for bit.
func matchReference(t *testing.T, label string, g *Profiler, n *naiveProfiler) {
	t.Helper()
	if g.NumBlocks() != len(n.ids) {
		t.Errorf("%s: %d blocks, reference %d", label, g.NumBlocks(), len(n.ids))
	}
	if len(g.Vectors()) != len(n.vectors) {
		t.Errorf("%s: %d intervals, reference %d", label, len(g.Vectors()), len(n.vectors))
		return
	}
	for k, v := range g.Vectors() {
		ref := n.vectors[k]
		if len(v) != len(ref) {
			t.Errorf("%s: interval %d has %d blocks, reference %d", label, k, len(v), len(ref))
			continue
		}
		for id, wgt := range v {
			if rw, ok := ref[id]; !ok || math.Float64bits(rw) != math.Float64bits(wgt) {
				t.Errorf("%s: interval %d block %d weight %v, reference %v (present %v)", label, k, id, wgt, rw, ok)
			}
		}
	}
}
