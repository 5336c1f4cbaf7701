package mav

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rv64"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func load(addr uint64) *sim.Retired {
	return &sim.Retired{Inst: rv64.Inst{Op: rv64.LD}, MemAddr: addr}
}

func store(addr uint64) *sim.Retired {
	return &sim.Retired{Inst: rv64.Inst{Op: rv64.SD}, MemAddr: addr}
}

func alu() *sim.Retired {
	return &sim.Retired{Inst: rv64.Inst{Op: rv64.ADD}}
}

func TestProfilerCounts(t *testing.T) {
	p := NewProfiler(8)
	// Interval 1: two loads to the same line, a store one line up, an
	// ALU op, a load 4 lines up, a load 100 lines up, then filler.
	p.Observe(load(0x1000))
	p.Observe(load(0x1008))  // same 64B line as 0x1000
	p.Observe(store(0x1040)) // +1 line
	p.Observe(alu())
	p.Observe(load(0x1140)) // +4 lines
	p.Observe(load(0x2c40)) // +92 lines
	p.Observe(alu())
	p.Observe(alu()) // 8th instruction flushes
	vs := p.Vectors()
	if len(vs) != 1 {
		t.Fatalf("got %d vectors, want 1", len(vs))
	}
	v := vs[0]
	if v[FeatLoads] != 4 || v[FeatStores] != 1 {
		t.Fatalf("loads/stores = %v/%v, want 4/1", v[FeatLoads], v[FeatStores])
	}
	if v[FeatUniqueLines] != 4 {
		t.Fatalf("unique lines = %v, want 4", v[FeatUniqueLines])
	}
	if v[FeatSameLine] != 1 || v[FeatNearStride] != 1 || v[FeatSmallStride] != 1 || v[FeatLargeStride] != 1 {
		t.Fatalf("strides same/near/small/large = %v/%v/%v/%v, want 1/1/1/1",
			v[FeatSameLine], v[FeatNearStride], v[FeatSmallStride], v[FeatLargeStride])
	}
	// 0x1008 hit the line inserted by 0x1000.
	if v[FeatReuseHits] != 1 {
		t.Fatalf("reuse hits = %v, want 1", v[FeatReuseHits])
	}
}

func TestIntervalBoundariesMatchBBV(t *testing.T) {
	// The profiler counts every retired instruction, so vector count
	// follows total instructions / interval regardless of memory mix.
	p := NewProfiler(4)
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			p.Observe(load(uint64(i) * 64))
		} else {
			p.Observe(alu())
		}
	}
	p.Finish()
	if got := len(p.Vectors()); got != 3 { // 4 + 4 + trailing 2
		t.Fatalf("got %d vectors, want 3", got)
	}
	// State does not leak across the boundary: the same line again in a
	// new interval is a fresh unique line, not a reuse hit or zero stride.
	p2 := NewProfiler(1)
	p2.Observe(load(0x1000))
	p2.Observe(load(0x1000))
	vs := p2.Vectors()
	if len(vs) != 2 {
		t.Fatalf("got %d vectors, want 2", len(vs))
	}
	for i, v := range vs {
		if v[FeatUniqueLines] != 1 || v[FeatReuseHits] != 0 || v[FeatSameLine] != 0 {
			t.Fatalf("interval %d: unique/reuse/same = %v/%v/%v, want 1/0/0 (state leaked)", i,
				v[FeatUniqueLines], v[FeatReuseHits], v[FeatSameLine])
		}
	}
}

func TestReuseWindowEvicts(t *testing.T) {
	p := NewProfiler(1 << 20)
	// Touch reuseWindow+1 distinct lines, then re-touch the first: it
	// must have been evicted (FIFO), so no reuse hit for it.
	for i := 0; i <= reuseWindow; i++ {
		p.Observe(load(uint64(i) << lineShift))
	}
	p.Observe(load(0))
	p.Finish()
	v := p.Vectors()[0]
	if v[FeatReuseHits] != 0 {
		t.Fatalf("reuse hits = %v, want 0 (line 0 evicted)", v[FeatReuseHits])
	}
	// But the most recent line is still resident.
	p2 := NewProfiler(1 << 20)
	for i := 0; i <= reuseWindow; i++ {
		p2.Observe(load(uint64(i) << lineShift))
	}
	p2.Observe(load(uint64(reuseWindow) << lineShift))
	p2.Finish()
	if got := p2.Vectors()[0][FeatReuseHits]; got != 1 {
		t.Fatalf("reuse hits = %v, want 1", got)
	}
}

func TestFinishOnEmpty(t *testing.T) {
	p := NewProfiler(100)
	p.Finish()
	if len(p.Vectors()) != 0 {
		t.Fatal("empty run produced vectors")
	}
	if p.IntervalSize() != 100 {
		t.Fatalf("IntervalSize = %d", p.IntervalSize())
	}
}

func TestVectorTotal(t *testing.T) {
	v := Vector{1, 2, 3}
	if v.Total() != 6 {
		t.Fatalf("Total = %v, want 6", v.Total())
	}
}

// TestObserveBlocksMatchesObserve: on every workload, at a short interval
// and the workload's own, a profiler fed RunBlocks batches — calls that
// stop at every interval boundary and at random points between — yields
// the MAVs of one fed every retired instruction through Observe.
func TestObserveBlocksMatchesObserve(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		for _, iv := range []int64{997, w.IntervalSize} {
			cpu, err := w.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			want := NewProfiler(iv)
			if _, err := cpu.RunTrace(-1, want.Observe); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want.Finish()

			if cpu, err = w.NewCPU(); err != nil {
				t.Fatal(err)
			}
			got := NewProfiler(iv)
			for done := int64(0); !cpu.Halted; {
				step := iv - done%iv
				if rng.Intn(2) == 0 {
					step = min(step, 1+rng.Int63n(iv))
				}
				n, err := cpu.RunBlocks(step, true, got.ObserveBlocks)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				done += n
			}
			got.Finish()
			if !reflect.DeepEqual(got.Vectors(), want.Vectors()) {
				t.Errorf("%s/%d: block-fed MAVs differ from Observe-fed ones (%d vs %d intervals)",
					name, iv, len(got.Vectors()), len(want.Vectors()))
			}
		}
	}
}

// TestIntervalsReuseTheirSets: closing an interval clears the per-interval
// line and recency sets instead of making new ones, so a thousand
// intervals cost only the vector slice's growth, not two maps each.
func TestIntervalsReuseTheirSets(t *testing.T) {
	p := NewProfiler(2)
	var line uint64
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			line += 64
			p.Observe(load(line))
			p.Observe(store(line + 64))
		}
	})
	if len(p.Vectors()) < 1000 {
		t.Fatalf("%d intervals closed, want at least 1000", len(p.Vectors()))
	}
	if allocs > 50 {
		t.Errorf("1000 intervals allocated %v times", allocs)
	}
}
