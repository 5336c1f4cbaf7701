package core

// Measure-stage kernel benchmark: one full (workload, config) cell —
// every simulation point warmed, measured, and estimated — serially and
// with four workers sharing the budget. The J1/J4 pair is what
// BENCH_kernel.json records for the intra-cell point parallelism of
// DESIGN §4, and `make bench-measure` asserts J4 actually beats J1 with
// byte-identical results. The profile (functional simulation + SimPoint
// selection) is built once per process so ns/op isolates the measure
// stage itself.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/boom"
	"repro/internal/workloads"
)

var (
	mbOnce sync.Once
	mbProf *Profile
	mbErr  error
)

// measureProfile profiles sha at tiny scale once per process.
func measureProfile(b *testing.B) *Profile {
	b.Helper()
	mbOnce.Do(func() {
		w, err := workloads.Build("sha", workloads.ScaleTiny)
		if err != nil {
			mbErr = err
			return
		}
		mbProf, mbErr = New(DefaultFlowConfig()).Profile(context.Background(), w)
	})
	if mbErr != nil {
		b.Fatal(mbErr)
	}
	return mbProf
}

func benchMeasure(b *testing.B, par int) {
	p := measureProfile(b)
	cfg := boom.MegaBOOM()
	r := New(DefaultFlowConfig(), WithParallelism(par))
	b.ReportAllocs()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(context.Background(), p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.DetailedInsts
	}
	if el := b.Elapsed().Seconds(); el > 0 && insts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	}
}

func BenchmarkKernelMeasureJ1MegaBOOM(b *testing.B) { benchMeasure(b, 1) }
func BenchmarkKernelMeasureJ4MegaBOOM(b *testing.B) { benchMeasure(b, 4) }

// BenchmarkKernelWarmSweep is a rerun: the 3 × 3 tiny campaign against a
// cache populated in set-up, a fresh Runner per iteration (a new process's
// worth of Runner against an old cache), on one worker so allocs/op is the
// same count on every host. What is left is workloads.Build, key
// derivation, three selection and nine result decodes, and six streaming
// checksums; `make bench-smoke` holds allocs/op at or below the ledger's
// warm_sweep row, so a payload read creeping back in fails on any machine.
func BenchmarkKernelWarmSweep(b *testing.B) {
	dir := b.TempDir()
	camp := tcamp(warmNames, boom.Configs())
	sweep := func() {
		if _, err := New(DefaultFlowConfig(), WithCache(dir), WithParallelism(1)).Sweep(context.Background(), camp); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // cold: populates the cache
	sweep() // warm: first-use set-up (the verifier's pooled buffer) stays out of the count
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
