package boom

// Kernel microbenchmarks of the cycle-model hot path. These are white-box
// (package boom) so they can meter cycles directly and drive the decode
// path in isolation. They are trace-replay driven: one committed
// instruction stream is recorded from the functional simulator once and
// replayed from memory, so the numbers measure the timing model alone —
// not the functional simulator feeding it.
//
// `make bench` wraps these (via cmd/kernelbench) into BENCH_kernel.json so
// every PR has a perf trajectory to defend; `make check` runs each once
// (-benchtime=1x) to catch harness rot.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

var (
	ktMu  sync.Mutex
	ktBuf = map[string][]sim.Retired{}
)

// kernelTrace records the committed instruction stream of a workload at
// tiny scale once per process, for the benchmarks that replay it b.N times.
func kernelTrace(tb testing.TB, name string) []sim.Retired {
	tb.Helper()
	ktMu.Lock()
	defer ktMu.Unlock()
	if tr, ok := ktBuf[name]; ok {
		return tr
	}
	tr := workloadTrace(tb, name)
	ktBuf[name] = tr
	return tr
}

// workloadTrace records a workload's committed stream at tiny scale,
// uncached: a test uses a trace once and should not keep ~50 MB alive.
func workloadTrace(tb testing.TB, name string) []sim.Retired {
	tb.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		tb.Fatal(err)
	}
	return recordTrace(tb, cpu)
}

// recordTrace captures a CPU's committed instruction stream so the same
// stream can be replayed into several cores.
func recordTrace(tb testing.TB, cpu *sim.CPU) []sim.Retired {
	tb.Helper()
	var tr []sim.Retired
	if _, err := cpu.RunTrace(-1, func(r *sim.Retired) { tr = append(tr, *r) }); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// replaySource feeds a recorded trace to Core.Run.
type replaySource struct {
	tr  []sim.Retired
	pos int
}

func (s *replaySource) next(r *sim.Retired) bool {
	if s.pos >= len(s.tr) {
		return false
	}
	*r = s.tr[s.pos]
	s.pos++
	return true
}

// benchTick replays a workload's full recorded trace through a fresh core
// per iteration: ns/op is the cost of one whole-trace replay; the cycles/s
// and ns/inst metrics are the figures BENCH_kernel.json records.
func benchTick(b *testing.B, workload string, cfg Config) {
	tr := kernelTrace(b, workload)
	b.ReportAllocs()
	var cycles, insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src := &replaySource{tr: tr}
		n, err := c.Run(src.next, math.MaxUint64)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
		cycles += c.Stats().Cycles
	}
	el := b.Elapsed().Seconds()
	if el > 0 && insts > 0 {
		b.ReportMetric(float64(cycles)/el, "cycles/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	}
}

// The tick kernel is metered at both ends of the suite: sha (IPC ~3.5)
// pays per instruction, tarfind (IPC ~0.3) per cycle — a cost that grows
// with cycles × queue occupancy shows only on the second.
func BenchmarkKernelTickMediumBOOM(b *testing.B) { benchTick(b, "sha", MediumBOOM()) }
func BenchmarkKernelTickLargeBOOM(b *testing.B)  { benchTick(b, "sha", LargeBOOM()) }
func BenchmarkKernelTickMegaBOOM(b *testing.B)   { benchTick(b, "sha", MegaBOOM()) }

func BenchmarkKernelTickLoIPCMediumBOOM(b *testing.B) { benchTick(b, "tarfind", MediumBOOM()) }
func BenchmarkKernelTickLoIPCLargeBOOM(b *testing.B)  { benchTick(b, "tarfind", LargeBOOM()) }
func BenchmarkKernelTickLoIPCMegaBOOM(b *testing.B)   { benchTick(b, "tarfind", MegaBOOM()) }

// benchWarm replays a workload's full recorded trace through Core.Warm on
// a fresh core per iteration: its ns/inst is functional warming's cost per
// instruction, what a proportional warm-up pays instead of the tick rows'.
func benchWarm(b *testing.B, workload string, cfg Config) {
	tr := kernelTrace(b, workload)
	b.ReportAllocs()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src := &replaySource{tr: tr}
		n, err := c.Warm(src.next, math.MaxUint64)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	if insts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	}
}

func BenchmarkKernelWarmMediumBOOM(b *testing.B) { benchWarm(b, "sha", MediumBOOM()) }
func BenchmarkKernelWarmMegaBOOM(b *testing.B)   { benchWarm(b, "sha", MegaBOOM()) }

// BenchmarkKernelDecode measures the per-instruction fetch-crack path
// (trace pull → µop fields) in isolation: ns/op is the cost of cracking
// one committed instruction into a µop.
func BenchmarkKernelDecode(b *testing.B) {
	tr := kernelTrace(b, "sha")
	c, err := New(MediumBOOM())
	if err != nil {
		b.Fatal(err)
	}
	src := &replaySource{tr: tr}
	c.next = func(r *sim.Retired) bool {
		if !src.next(r) {
			src.pos = 0
			return src.next(r)
		}
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.pullTrace() == nil {
			b.Fatal("trace ran dry")
		}
		c.peeked = false
	}
}

// BenchmarkKernelStatsAccumulate measures the per-interval weighted
// activity merge (SimPoint aggregation: scale one interval's counters by
// its cluster weight and fold into the campaign aggregate).
func BenchmarkKernelStatsAccumulate(b *testing.B) {
	cfg := MediumBOOM()
	src := NewStats(&cfg)
	src.Cycles, src.Insts = 1_000_000, 800_000
	for c := range src.Comp {
		src.Comp[c] = Activity{
			Reads: 100_000, Writes: 50_000, CAMSearches: 400_000,
			Shifts: 30_000, Occupancy: 5_000_000,
		}
	}
	for i := range src.IntIssueSlotCycles {
		src.IntIssueSlotCycles[i] = uint64(900_000 - 20_000*i)
	}
	agg := NewStats(&cfg)
	tmp := NewStats(&cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots := tmp.IntIssueSlotCycles // keep tmp's own backing array
		*tmp = *src
		tmp.IntIssueSlotCycles = append(slots[:0], src.IntIssueSlotCycles...)
		tmp.ScaleWeighted(0.37)
		agg.Add(tmp)
	}
}
