package main

import (
	"io"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/boom
cpu: AMD EPYC 7B13
BenchmarkKernelTickMediumBOOM-8   	      66	  17072339 ns/op	   5366232 cycles/s	     108.3 ns/inst	  700816 B/op	    1593 allocs/op
BenchmarkKernelTickMediumBOOM-8   	      70	  16900000 ns/op	   5400000 cycles/s	     107.0 ns/inst	  700000 B/op	    1593 allocs/op
BenchmarkKernelDecode-8           	52000000	      22.65 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelStatsAccumulate-8  	 4900000	     241.4 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/boom	5.1s
pkg: repro/internal/power
BenchmarkKernelPowerAccumulateMegaBOOM-8	 3300000	     357.7 ns/op	     672 B/op	       2 allocs/op
PASS
ok  	repro/internal/power	1.2s
`

func TestParseBenchOutput(t *testing.T) {
	rep := parseBenchOutput(sampleOutput)
	if rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4 (duplicate runs must merge)", len(rep.Results))
	}

	tick := rep.Results[0]
	if tick.Name != "KernelTickMediumBOOM" || tick.Kernel != "tick" || tick.Config != "MediumBOOM" {
		t.Errorf("tick identity: %+v", tick)
	}
	if tick.Package != "repro/internal/boom" {
		t.Errorf("tick package = %q", tick.Package)
	}
	// -count merging keeps the faster run.
	if tick.NsPerOp != 16900000 || tick.CyclesPerSec != 5400000 || tick.Iterations != 70 {
		t.Errorf("best-run merge failed: %+v", tick)
	}
	if tick.AllocsPerOp != 1593 {
		t.Errorf("allocs = %d", tick.AllocsPerOp)
	}

	dec := rep.Results[1]
	if dec.Kernel != "decode" || dec.Config != "" || dec.NsPerOp != 22.65 || dec.AllocsPerOp != 0 {
		t.Errorf("decode: %+v", dec)
	}
	if rep.Results[2].Kernel != "stats_accumulate" {
		t.Errorf("kernel name: %+v", rep.Results[2])
	}

	pw := rep.Results[3]
	if pw.Kernel != "power_accumulate" || pw.Config != "MegaBOOM" || pw.Package != "repro/internal/power" {
		t.Errorf("power: %+v", pw)
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkKernelTick-8",             // no fields
		"BenchmarkKernelTick-8 abc 1 ns/op", // bad iteration count
		"Benchmark",                         // truncated
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestSplitKernelName(t *testing.T) {
	for name, want := range map[string][2]string{
		"KernelTickMediumBOOM":    {"tick", "MediumBOOM"},
		"KernelTickLoIPCMegaBOOM": {"tick_lo_ipc", "MegaBOOM"},
		"KernelStatsAccumulate":   {"stats_accumulate", ""},
		"KernelMeasureJ1MegaBOOM": {"measure_j1", "MegaBOOM"},
		"KernelFuncStep":          {"func_step", ""},
		"KernelFuncRunTrace":      {"func_run_trace", ""},
		"KernelBBVObserve":        {"bbv_observe", ""},
		"KernelMemReadWrite":      {"mem_read_write", ""},
		"KernelWarmSweep":         {"warm_sweep", ""},
		"KernelProfile":           {"profile", ""},
	} {
		if k, c := splitKernelName(name); k != want[0] || c != want[1] {
			t.Errorf("%s → (%q, %q), want (%q, %q)", name, k, c, want[0], want[1])
		}
	}
}

func TestCheckFloor(t *testing.T) {
	ledger := func(cpu string, ns float64, allocs int64) *Report {
		rep := &Report{CPU: cpu}
		for _, k := range floorKernels {
			rep.Results = append(rep.Results, Result{Kernel: k, NsPerOp: ns, AllocsPerOp: allocs})
		}
		return rep
	}
	committed := ledger("cpu A", 10, 0)
	for _, tc := range []struct {
		name string
		got  *Report
		want string // substring of the error; "" = passes
	}{
		{"same speed", ledger("cpu A", 10, 0), ""},
		{"within slack", ledger("cpu A", 14.9, 0), ""},
		{"too slow", ledger("cpu A", 15.1, 0), "more than 1.5x"},
		{"too slow on another cpu model is not comparable", ledger("cpu B", 40, 0), ""},
		{"allocates", ledger("cpu A", 10, 1), "allocates 1/op"},
		{"allocates on another cpu model", ledger("cpu B", 10, 1), "allocates 1/op"},
		{"kernel missing", &Report{CPU: "cpu A"}, "did not run"},
	} {
		err := checkFloor(tc.got, committed, io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if err := checkFloor(ledger("cpu A", 10, 0), &Report{CPU: "cpu A"}, io.Discard); err == nil || !strings.Contains(err.Error(), "no committed row") {
		t.Errorf("empty committed ledger: err = %v", err)
	}
}

// TestCheckFloorTickCeiling: the tick kernels (and the warm rerun) are held
// per config to an allocation ceiling — lower passes, higher fails on any
// CPU model, the slack rounding to nothing on a 57/op row — the tick
// kernels also to a byte ceiling within 1 %, and a ceiling-only run does
// not need the functional-core kernels.
func TestCheckFloorTickCeiling(t *testing.T) {
	tickBytes := func(cpu string, large, largeBytes int64) *Report {
		return &Report{CPU: cpu, Results: []Result{
			{Kernel: "tick", Config: "MediumBOOM", AllocsPerOp: 57, BytesPerOp: 600_000},
			{Kernel: "tick", Config: "LargeBOOM", AllocsPerOp: large, BytesPerOp: largeBytes},
			{Kernel: "tick_lo_ipc", Config: "LargeBOOM", AllocsPerOp: 57, BytesPerOp: 600_000},
			{Kernel: "warm_sweep", AllocsPerOp: 2400, BytesPerOp: 180_000},
		}}
	}
	ticks := func(cpu string, large int64) *Report { return tickBytes(cpu, large, 600_000) }
	warm := func(allocs int64) *Report {
		return &Report{Results: []Result{{Kernel: "warm_sweep", AllocsPerOp: allocs, BytesPerOp: 180_000}}}
	}
	warmBytes := func(bytes int64) *Report {
		return &Report{Results: []Result{{Kernel: "warm_sweep", AllocsPerOp: 2400, BytesPerOp: bytes}}}
	}
	committed := ticks("cpu A", 57)
	for _, tc := range []struct {
		name string
		got  *Report
		want string
	}{
		{"equal", ticks("cpu A", 57), ""},
		{"lower", ticks("cpu A", 40), ""},
		{"higher", ticks("cpu A", 58), "tick LargeBOOM allocates 58/op, committed 57/op"},
		{"higher on another cpu model", ticks("cpu B", 1656), "allocates 1656/op"},
		{"warm rerun within the pool-refill slack", warm(2424), ""},
		{"warm rerun reads a payload again", warm(2425), "warm_sweep allocates 2425/op, committed 2400/op"},
		{"fewer tick bytes", tickBytes("cpu A", 57, 500_000), ""},
		{"tick bytes within the slack", tickBytes("cpu A", 57, 606_000), ""},
		{"a grown per-core table", tickBytes("cpu B", 57, 606_001), "tick LargeBOOM allocates 606001 B/op, committed 600000 B/op"},
		{"warm rerun bytes are not held", warmBytes(200_000), ""},
		{"uncommitted config", &Report{Results: []Result{{Kernel: "tick_lo_ipc", Config: "MegaBOOM"}}}, "no committed row"},
		{"ticks beside half a functional floor", &Report{Results: append(ticks("cpu A", 57).Results, Result{Kernel: "mem_read_write"})}, "func_step did not run"},
	} {
		err := checkFloor(tc.got, committed, io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
