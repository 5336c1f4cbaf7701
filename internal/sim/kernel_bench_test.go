package sim_test

// Kernel microbenchmarks of the functional simulator, the producer side of
// the trace-driven timing model: one instruction per Step call, and the
// batched RunTrace path the profile stage drives. One op is one retired
// instruction. Wrapped into BENCH_kernel.json by cmd/kernelbench.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

func BenchmarkKernelFuncStep(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		b.Fatal(err)
	}
	var r sim.Retired
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpu.Halted {
			b.StopTimer()
			if cpu, err = w.NewCPU(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cpu.Step(&r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFuncRunTrace retires b.N instructions through RunTrace
// under a no-op observer, restarting the workload whenever it exits.
func BenchmarkKernelFuncRunTrace(b *testing.B) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		b.Fatal(err)
	}
	observe := func(*sim.Retired) {}
	b.ReportAllocs()
	b.ResetTimer()
	for left := int64(b.N); left > 0; {
		if cpu.Halted {
			b.StopTimer()
			if cpu, err = w.NewCPU(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		n, err := cpu.RunTrace(left, observe)
		if err != nil {
			b.Fatal(err)
		}
		left -= n
	}
}
