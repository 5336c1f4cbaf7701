package bbv

// Kernel microbenchmark of the BBV profiler's per-instruction cost: a
// recorded slice of sha's retirement stream replayed through Observe. One
// op is one retired instruction. Wrapped into BENCH_kernel.json by
// cmd/kernelbench.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

func BenchmarkKernelBBVObserve(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		b.Fatal(err)
	}
	// Small enough to stay cache-resident, so the number is Observe's and
	// not the memory system's.
	const window = 1 << 13
	recs := make([]sim.Retired, window)
	if n, err := cpu.Fill(recs); err != nil || n != len(recs) {
		b.Fatalf("recorded %d of %d instructions: %v", n, len(recs), err)
	}
	p := NewProfiler(w.IntervalSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(&recs[i&(window-1)])
	}
}
