package workloads

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// runWorkload executes w to completion and returns the checksum (a0) and
// instruction count.
func runWorkload(t *testing.T, w *Workload) (uint64, uint64) {
	t.Helper()
	c, err := w.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(2_000_000_000); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !c.Halted {
		t.Fatalf("%s did not halt", w.Name)
	}
	return uint64(c.Exit), c.InstRet
}

// TestChecksumsTiny validates every registered workload against its Go
// reference at tiny scale: one failure means the assembler, the simulator or
// the kernel disagrees with the reference semantics.
func TestChecksumsTiny(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := Build(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			got, insts := runWorkload(t, w)
			if got != w.Checksum() {
				t.Fatalf("%s: checksum %#x, want %#x", name, got, w.Checksum())
			}
			if insts < 20_000 {
				t.Errorf("%s: only %d instructions at tiny scale", name, insts)
			}
			t.Logf("%s: %d instructions, checksum %#x", name, insts, got)
		})
	}
}

// TestChecksumsDefault validates the experiment-scale inputs.
func TestChecksumsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("default scale is slow in -short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := Build(name, ScaleDefault)
			if err != nil {
				t.Fatal(err)
			}
			got, insts := runWorkload(t, w)
			if got != w.Checksum() {
				t.Fatalf("%s: checksum %#x, want %#x", name, got, w.Checksum())
			}
			if insts < 500_000 {
				t.Errorf("%s: only %d instructions at default scale", name, insts)
			}
			t.Logf("%s: %d instructions", name, insts)
		})
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", ScaleTiny); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterministicBuild(t *testing.T) {
	for _, name := range Names() {
		a, err := Build(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum() != b.Checksum() || a.Source != b.Source {
			t.Errorf("%s: non-deterministic build", name)
		}
	}
}

// TestReferenceIsLazy: Build leaves every reference unrun, and eight
// goroutines asking for the checksum at once run it exactly once and all
// see its value.
func TestReferenceIsLazy(t *testing.T) {
	for _, name := range Names() {
		w, err := Build(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		var runs atomic.Int32
		ref := w.ref
		w.ref = func() uint64 { runs.Add(1); return ref() }
		got := make([]uint64, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = w.Checksum()
			}()
		}
		wg.Wait()
		if n := runs.Load(); n != 1 {
			t.Errorf("%s: reference ran %d times after Build and 8 Checksum calls, want 1", name, n)
		}
		want := ref()
		for i, v := range got {
			if v != want {
				t.Errorf("%s: caller %d saw %#x, reference %#x", name, i, v, want)
			}
		}
	}
}

// TestChecksumPaperScaleSpot validates one workload at the paper's full
// instruction count (sha ≈ 160 M dynamic instructions).
func TestChecksumPaperScaleSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale is slow")
	}
	w, err := Build("sha", ScalePaper)
	if err != nil {
		t.Fatal(err)
	}
	got, insts := runWorkload(t, w)
	if got != w.Checksum() {
		t.Fatalf("sha paper-scale checksum %#x, want %#x", got, w.Checksum())
	}
	if insts < 100_000_000 {
		t.Fatalf("paper scale only ran %d instructions", insts)
	}
}

// TestEntryIsTheLoadedProgram: every workload's entry checkpoint holds what
// loading the program and its segments into a new CPU leaves there — the
// same registers and the same pages, byte for byte — and a CPU restored
// from it starts there, with the text window attached.
func TestEntryIsTheLoadedProgram(t *testing.T) {
	for _, name := range Names() {
		w, err := Build(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		loaded := sim.New()
		loaded.Load(p)
		for _, seg := range w.Segments {
			loaded.Mem.SetBytes(seg.Addr, seg.Bytes)
		}
		k, err := w.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if k.PC != loaded.PC || k.X != loaded.X || k.F != loaded.F || k.InstRet != 0 {
			t.Errorf("%s: entry registers differ from a loaded CPU's", name)
		}
		var got, want bytes.Buffer
		if err := k.Mem.Serialize(&got); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Mem.Serialize(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: entry image (%d pages) differs from a loaded CPU's memory (%d pages)", name, k.Mem.PageCount(), loaded.Mem.PageCount())
		}
		if again, _ := w.Entry(); again != k {
			t.Errorf("%s: Entry built a second checkpoint", name)
		}
		c, err := w.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		var r sim.Retired
		if err := c.Step(&r); err != nil || r.PC != p.Entry || r.Inst != p.Insts[(p.Entry-p.TextAddr)/4] {
			t.Errorf("%s: a new CPU's first instruction is %#x %v (%v), want the entry's", name, r.PC, r.Inst, err)
		}
	}
}

// TestEntrySharedAcrossCPUs: eight goroutines each restore one Workload's
// entry into a CPU of their own (NewCPU) and run it to its halt, while the
// entry checkpoint is built by whichever of them asks first. Each run must
// leave the reference checksum, and under the race detector no goroutine
// may write the shared image: each CPU copies a page before its first
// write to it.
func TestEntrySharedAcrossCPUs(t *testing.T) {
	w, err := Build("qsort", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	exits := make([]uint64, 8)
	errs := make([]error, len(exits))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range exits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := w.NewCPU()
			if err != nil {
				errs[i] = err
				return
			}
			if _, errs[i] = c.Run(-1); errs[i] == nil && !c.Halted {
				errs[i] = fmt.Errorf("did not halt")
			}
			exits[i] = uint64(c.Exit)
		}()
	}
	close(start)
	wg.Wait()
	for i, v := range exits {
		if errs[i] != nil {
			t.Fatalf("CPU %d: %v", i, errs[i])
		}
		if v != w.Checksum() {
			t.Errorf("CPU %d exited with %#x, reference %#x", i, v, w.Checksum())
		}
	}
}
