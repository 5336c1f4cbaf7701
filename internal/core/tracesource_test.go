package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/boom"
	"repro/internal/sim"
)

// faultAfter assembles a program that retires exactly n instructions and
// then executes an EBREAK.
func faultAfter(t *testing.T, n int) *asm.Program {
	t.Helper()
	var src bytes.Buffer
	src.WriteString("\t.text\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "\taddi t0, t0, %d\n", i%7)
	}
	src.WriteString("\tebreak\n")
	p, err := asm.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTraceSourceSurfacesFaultAtItsRecord: the trace source executes a
// batch ahead of the timing model, so the functional CPU meets a fault up
// to a batch early — but the source must report it only when the consumer
// asks for the faulting record, wherever in a batch that record falls, and
// deliver exactly the records one Step per pull would have.
func TestTraceSourceSurfacesFaultAtItsRecord(t *testing.T) {
	for _, n := range []int{0, 1, traceBatch - 1, traceBatch, traceBatch + 1, 3*traceBatch + 17} {
		prog := faultAfter(t, n)
		ref := sim.New()
		ref.Load(prog)
		cpu := sim.New()
		cpu.Load(prog)
		ts := &traceSource{cpu: cpu}
		for i := 0; i < n; i++ {
			var want, got sim.Retired
			if err := ref.Step(&want); err != nil {
				t.Fatal(err)
			}
			if !ts.next(&got) {
				t.Fatalf("n=%d: trace ended at record %d: %v", n, i, ts.err)
			}
			if got != want {
				t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got, want)
			}
			if ts.err != nil {
				t.Fatalf("n=%d: fault surfaced at record %d, before the timing model reached it", n, i)
			}
		}
		var r sim.Retired
		for pull := 0; pull < 2; pull++ { // the end is sticky
			if ts.next(&r) {
				t.Fatalf("n=%d: trace ran past the faulting instruction", n)
			}
			if !errors.Is(ts.err, sim.ErrBreakpoint) {
				t.Fatalf("n=%d: err = %v, want the EBREAK", n, ts.err)
			}
		}
	}
}

// TestTraceSourceEndsAtHalt: a halted program ends the trace with no error,
// however often it is pulled.
func TestTraceSourceEndsAtHalt(t *testing.T) {
	prog, err := asm.Assemble("\t.text\n\tnop\n\tnop\n\tli a7, 93\n\tecall\n")
	if err != nil {
		t.Fatal(err)
	}
	cpu := sim.New()
	cpu.Load(prog)
	ts := &traceSource{cpu: cpu}
	var r sim.Retired
	n := 0
	for ts.next(&r) {
		n++
	}
	if n != 4 || ts.err != nil || ts.next(&r) {
		t.Fatalf("pulled %d records, err %v", n, ts.err)
	}
}

// TestSharedImageConcurrentPoints measures one cell with two point workers:
// both restore checkpoints of the same workload and fetch from its one
// predecoded image at the same time. Under -race (make race) this is the
// check that the image really is read-only; the byte comparison is the
// check that sharing it changes nothing.
func TestSharedImageConcurrentPoints(t *testing.T) {
	p := profileOf(t, "qsort")
	if p.NumSimPoints() < 2 {
		t.Fatalf("qsort selected %d simulation point(s); the test needs two to run concurrently", p.NumSimPoints())
	}
	cfg := boom.MediumBOOM()
	serial, err := New(DefaultFlowConfig(), WithParallelism(1)).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(DefaultFlowConfig(), WithParallelism(2), WithPointParallelism(2)).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := EncodeMeasuredResult(serial)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := EncodeMeasuredResult(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, wb) {
		t.Error("two point workers sharing the text image measured a different cell than one")
	}
}
