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
// asks for the batch after the faulting record's, wherever in a batch that
// record falls, and deliver exactly the records one Step per pull would
// have.
func TestTraceSourceSurfacesFaultAtItsRecord(t *testing.T) {
	for _, n := range []int{0, 1, sim.TraceBatch - 1, sim.TraceBatch, sim.TraceBatch + 1, 3*sim.TraceBatch + 17} {
		prog := faultAfter(t, n)
		ref := sim.New()
		ref.Load(prog)
		cpu := sim.New()
		cpu.Load(prog)
		ts := &traceSource{cpu: cpu}
		for i := 0; i < n; {
			recs := ts.Batch()
			if len(recs) == 0 {
				t.Fatalf("n=%d: trace ended at record %d: %v", n, i, ts.err)
			}
			for _, got := range recs {
				if i == n {
					t.Fatalf("n=%d: trace ran past the faulting instruction", n)
				}
				var want sim.Retired
				if err := ref.Step(&want); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got, want)
				}
				i++
			}
			if ts.err != nil {
				t.Fatalf("n=%d: fault surfaced at record %d, before the timing model reached it", n, i)
			}
		}
		for pull := 0; pull < 2; pull++ { // the end is sticky
			if recs := ts.Batch(); len(recs) != 0 {
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
	n := 0
	for recs := ts.Batch(); len(recs) > 0; recs = ts.Batch() {
		n += len(recs)
	}
	if n != 4 || ts.err != nil || len(ts.Batch()) != 0 {
		t.Fatalf("pulled %d records, err %v", n, ts.err)
	}
}

// TestSharedImageConcurrentPoints measures one cell with one, two and four
// point workers: they restore checkpoints of the same workload and fetch
// from its one predecoded image at the same time, and each keeps one
// timing core that it Resets from point to point. Under -race (make race)
// this is the check that the image really is read-only and a core never
// crosses workers; the byte comparison is the check that sharing the image
// changes nothing and that no state survives Reset — qsort's nine points
// land on the workers' cores in a different partition at each width, so a
// predictor or cache line leaking from one point into the next would
// measure a different cell.
func TestSharedImageConcurrentPoints(t *testing.T) {
	p := profileOf(t, "qsort")
	if p.NumSimPoints() < 5 {
		t.Fatalf("qsort selected %d simulation point(s); the test needs five so that one of four workers measures two", p.NumSimPoints())
	}
	cfg := boom.MediumBOOM()
	measure := func(opts ...Option) []byte {
		res, err := New(DefaultFlowConfig(), opts...).Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeMeasuredResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := measure(WithParallelism(1))
	for _, j := range []int{2, 4} {
		if !bytes.Equal(serial, measure(WithParallelism(j))) {
			t.Errorf("%d point workers sharing the text image measured a different cell than one", j)
		}
	}
}
