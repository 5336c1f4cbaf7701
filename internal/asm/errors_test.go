package asm

import (
	"strings"
	"testing"
)

// TestErrorMessagesCarryLineNumbers: diagnostics must point at the source.
func TestErrorMessagesCarryLineNumbers(t *testing.T) {
	src := ".text\n\tnop\n\tbogus a0, a1\n"
	_, err := Assemble(src)
	if err == nil {
		t.Fatal("expected error")
	}
	asmErr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if asmErr.Line != 3 {
		t.Errorf("error line %d, want 3", asmErr.Line)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("message %q lacks the line", err.Error())
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := map[string]string{
		"equ without value":   ".equ FOO\n",
		"bad align expr":      ".align oops\n",
		"bad space expr":      ".data\n.space x\n",
		"bad ascii quoting":   ".data\n.ascii hello\n",
		"word in text":        ".text\n.word 1\n",
		"space in text":       ".text\n.space 8\n",
		"ascii in text":       ".text\n.ascii \"x\"\n",
		"instruction in data": ".data\nadd a0, a0, a0\n",
		"bad byte operand":    ".data\n.byte 1, what, 3\n",
		"undefined dword sym": ".data\n.dword missing_symbol\n.text\nnop\n",
		"empty label":         ".text\n : nop\n",
		"space over 1 MiB":    ".data\n.space 1048577",
		"align over 12":       ".data\n.align 13",
	}
	for _, src := range PanicLines {
		if _, err := Assemble(src); err == nil {
			t.Errorf("once panicked: expected error for %q", src)
		}
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
	// The bounds themselves are accepted, as is -2^63.
	for _, src := range []string{".data\n.byte 1\n.space 1048576\n.align 12",
		".text\n.align 12\nli a0, -9223372036854775808"} {
		if _, err := Assemble(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// PanicLines are sources that once panicked the assembler (makeslice, a
// divide by zero); it must refuse each with an *Error. FuzzAssemble seeds
// from them.
var PanicLines = []string{
	".data\n.space -1",
	".text\n.align -1",
	".text\n.align 64",
	".text\n.align 70",
	".data\n.byte 1\n.align 63",
}

// OperandErrorLines are instruction lines the assembler must refuse.
// FuzzAssemble seeds from them.
var OperandErrorLines = []string{
	"\tld a0, a1, a2",                // loads take memory operands
	"\tsd 8(a0)",                     // missing data register
	"\tbeq a0, 7, target",            // branch needs registers
	"\tjal a0, a1, a2",               // too many operands
	"\tjalr",                         // too few
	"\tlui a0",                       // missing immediate
	"\taddi a0, a1, 99999",           // I-immediate overflow
	"\tslli a0, a1, 64",              // shamt overflow
	"\tli",                           // li needs 2 operands
	"\tfmadd.d fa0, fa1, fa2",        // fused needs 4
	"\tfmv.d a0, fa1",                // int reg in FP slot
	"\tmv a0",                        // pseudo arity
	"\tbgt a0, a1",                   // pseudo arity
	"\tli a0, -18446744073709551615", // below -2^63
}

// DataErrorLines are .data lines the assembler must refuse: a value that
// fits the directive's width neither as signed nor as unsigned, which GNU
// as warns of and truncates — a 64-bit literal too, though int64 folds it
// to -1. FuzzAssemble seeds from them.
var DataErrorLines = []string{
	"\t.byte 300",
	"\t.byte -129",
	"\t.byte 1, 256",
	"\t.half 70000",
	"\t.half -32769",
	"\t.word 4294967296",
	"\t.word -2147483649",
	"\t.byte 0xFFFFFFFFFFFFFFFF",
	"\t.half 18446744073709551615",
	"\t.word 0xFFFFFFFFFFFFFFFF",
	"\t.byte 0xFFFFFFFFFFFFFFFF + 0",
}

func TestOperandErrors(t *testing.T) {
	for _, line := range OperandErrorLines {
		if _, err := Assemble(".text\n" + line + "\n"); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
	for _, line := range DataErrorLines {
		_, err := Assemble(".data\n" + line + "\n")
		if _, ok := err.(*Error); !ok || err.(*Error).Line != 2 {
			t.Errorf("%q: got %v, want an *Error on line 2", line, err)
		}
	}
	// Either reading of the width is accepted, so the bounds and -1 are,
	// and an 8-byte directive takes a 64-bit literal.
	p := mustAssemble(t, ".data\n.byte -1, 255, -128\n.half -1, 65535, -32768\n.word -1, 0xffffffff, -2147483648\n.dword 0xFFFFFFFFFFFFFFFF\n")
	want := []byte{0xff, 0xff, 0x80, 0xff, 0xff, 0xff, 0xff, 0x00, 0x80,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x80,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if string(p.Data) != string(want) {
		t.Errorf("data % x, want % x", p.Data, want)
	}
}

// TestBranchRangeError: a branch that cannot reach its target must fail at
// encode time with a range diagnostic, not produce garbage.
func TestBranchRangeError(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".text\n\tbeq a0, a1, far\n")
	for i := 0; i < 1100; i++ { // > ±4 KiB of nops
		sb.WriteString("\tnop\n")
	}
	sb.WriteString("far:\n\tnop\n")
	if _, err := Assemble(sb.String()); err == nil {
		t.Fatal("expected branch-range error")
	} else if !strings.Contains(err.Error(), "range") {
		t.Errorf("unexpected diagnostic: %v", err)
	}
}

// TestEquForwardUseFails: .equ constants are single-pass (must be defined
// before use in instructions whose size depends on the value).
func TestEquChains(t *testing.T) {
	p := mustAssemble(t, `
		.equ A, 4
		.equ B, A*8
		.equ C, B+A-2
		.text
		li a0, C
	`)
	ins := decodeAll(t, p)
	if ins[0].Imm != 34 {
		t.Errorf("equ chain: li value %d, want 34", ins[0].Imm)
	}
}

// TestProgramGeometry: text/data placement and symbol table basics.
func TestProgramGeometry(t *testing.T) {
	p := mustAssemble(t, `
		.data
	a:
		.dword 1
		.text
	start:
		nop
	end:
		nop
	`)
	if p.TextAddr != DefaultTextBase || p.DataAddr != DefaultDataBase {
		t.Fatalf("bases %#x/%#x", p.TextAddr, p.DataAddr)
	}
	if p.Entry != p.TextAddr {
		t.Errorf("entry %#x", p.Entry)
	}
	if p.Symbols["start"] != p.TextAddr || p.Symbols["end"] != p.TextAddr+4 {
		t.Errorf("symbols wrong: %#x %#x", p.Symbols["start"], p.Symbols["end"])
	}
	if got := len(p.TextBytes()); got != 8 {
		t.Errorf("text bytes %d", got)
	}
}

// TestUndefinedSymbolReportsEarliestLine: pass 2 resolves text and data
// separately, but reports the undefined symbol on the earliest line, as
// resolving the lines in source order does.
func TestUndefinedSymbolReportsEarliestLine(t *testing.T) {
	for src, line := range map[string]int{
		".data\n.dword nowhere\n.text\nj missing\n":    2,
		".text\nj missing\n.data\n.dword nowhere\n":    2,
		".text\nnop\nla a0, gone\n.data\n.word lost\n": 3,
	} {
		_, err := Assemble(src)
		if e, ok := err.(*Error); !ok || e.Line != line {
			t.Errorf("%q: got %v, want an *Error on line %d", src, err, line)
		}
	}
}
