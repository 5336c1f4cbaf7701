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
	// One cell before the clock: the Runner builds its timing cores
	// there, and every counted cell Resets them, so allocs/op and
	// bytes/op are one cell's at any -benchtime.
	if _, err := r.Run(context.Background(), p, cfg); err != nil {
		b.Fatal(err)
	}
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
// same count on every host. What is left is workloads.Build (generation
// only: no reference runs), key derivation, three selection and nine
// result decodes, and six streaming checksums; `make bench-smoke` holds
// allocs/op at or below the ledger's warm_sweep row, so a payload read
// creeping back in fails on any machine.
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

// BenchmarkKernelProfile is one cold Runner.Profile of qsort at
// ScaleDefault with no cache: the functional pass with the BBV profiler and
// a memory mark at every candidate capture point, the SimPoint selection,
// and the checkpoints rebuilt from their marks. `make bench-smoke` holds
// allocs/op at or below the ledger's profile row, so a second functional
// pass, or a checkpoint image copied whole instead of shared, fails as a
// count on any host.
func BenchmarkKernelProfile(b *testing.B) {
	w, err := workloads.Build("qsort", workloads.ScaleDefault)
	if err != nil {
		b.Fatal(err)
	}
	// The program is assembled and the reference checksum computed once
	// per workload; keep both out of the count.
	if _, err := w.Program(); err != nil {
		b.Fatal(err)
	}
	w.Checksum()
	r := New(FlowConfigFor(workloads.ScaleDefault), WithParallelism(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Profile(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
}
