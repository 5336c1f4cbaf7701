package asm_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv64"
	"repro/internal/workloads"
)

// FuzzAssemble: no source panics the assembler, and it refuses one only
// with an *asm.Error. Every word of a program it accepts decodes, and
// assembling the word's disassembly gives the word back.
func FuzzAssemble(f *testing.F) {
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w.Source)
	}
	for _, line := range asm.OperandErrorLines {
		f.Add(".text\n" + line + "\n")
	}
	for _, line := range asm.DataErrorLines {
		f.Add(".data\n" + line + "\n")
	}
	for _, src := range asm.PanicLines {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			var ae *asm.Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not an *asm.Error: %v", err, err)
			}
			return
		}
		for i, w := range p.Text {
			in, err := rv64.Decode(w)
			if err != nil {
				t.Fatalf("word %d, %#08x, does not decode: %v", i, w, err)
			}
			line := rv64.Disassemble(in)
			q, err := asm.Assemble(".text\n" + line + "\n")
			if err != nil {
				t.Fatalf("word %d, %#08x: %q does not assemble: %v", i, w, line, err)
			}
			if len(q.Text) != 1 || q.Text[0] != w {
				t.Fatalf("word %d, %#08x: %q assembles to %#08x", i, w, line, q.Text)
			}
		}
	})
}

// shaAssembleAllocs is what assembling sha's ScaleDefault source allocates
// (the same under -race). The sections are built in storage sized from
// the source, so the count does not grow with the program: an assembler
// that allocated per line or per operand again would fail here. The
// assembler runs inside every cold sweep, whose allocation count the
// benchmark bounds at 3 %, so the ceiling allows 3 % more.
const shaAssembleAllocs = 10

func TestAssembleAllocCeiling(t *testing.T) {
	w, err := workloads.Build("sha", workloads.ScaleDefault)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := asm.Assemble(w.Source); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := shaAssembleAllocs * 1.03; n > ceiling {
		t.Fatalf("assembling sha allocates %.0f times, over its ceiling of %.0f (measured %d)", n, ceiling, shaAssembleAllocs)
	}
}
