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
