package asm

import (
	"testing"

	"repro/internal/rv64"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func decodeAll(t *testing.T, p *Program) []rv64.Inst {
	t.Helper()
	out := make([]rv64.Inst, len(p.Text))
	for i, raw := range p.Text {
		in, err := rv64.Decode(raw)
		if err != nil {
			t.Fatalf("inst %d (%#08x): %v", i, raw, err)
		}
		out[i] = in
	}
	return out
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		.text
		add  a0, a1, a2
		addi t0, t1, -42
		ld   a3, 16(sp)
		sd   a3, -8(sp)
		fld  fa0, 0(a0)
		fsd  fa0, 8(a0)
		fmadd.d fa1, fa2, fa3, fa4
		feq.d a0, fa1, fa2
		ecall
	`)
	ins := decodeAll(t, p)
	want := []rv64.Inst{
		{Op: rv64.ADD, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: rv64.ADDI, Rd: 5, Rs1: 6, Imm: -42},
		{Op: rv64.LD, Rd: 13, Rs1: 2, Imm: 16},
		{Op: rv64.SD, Rs1: 2, Rs2: 13, Imm: -8},
		{Op: rv64.FLD, Rd: 10, Rs1: 10},
		{Op: rv64.FSD, Rs1: 10, Rs2: 10, Imm: 8},
		{Op: rv64.FMADDD, Rd: 11, Rs1: 12, Rs2: 13, Rs3: 14},
		{Op: rv64.FEQD, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: rv64.ECALL},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(want))
	}
	for i := range want {
		g, w := ins[i], want[i]
		if g.Op != w.Op || g.Rd != w.Rd || g.Rs1 != w.Rs1 || g.Rs2 != w.Rs2 || g.Rs3 != w.Rs3 || g.Imm != w.Imm {
			t.Errorf("inst %d: have %+v want %+v", i, g, w)
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		.text
	start:
		addi a0, zero, 10
	loop:
		addi a0, a0, -1
		bnez a0, loop
		beq  a0, zero, done
		nop
	done:
		j start
	`)
	ins := decodeAll(t, p)
	// bnez at index 2 targets loop at index 1: offset -4
	if ins[2].Op != rv64.BNE || ins[2].Imm != -4 {
		t.Errorf("bnez: %+v", ins[2])
	}
	// beq at index 3 targets done at index 5: offset +8
	if ins[3].Op != rv64.BEQ || ins[3].Imm != 8 {
		t.Errorf("beq: %+v", ins[3])
	}
	// j at index 5 targets start at index 0: offset -20
	if ins[5].Op != rv64.JAL || ins[5].Rd != 0 || ins[5].Imm != -20 {
		t.Errorf("j: %+v", ins[5])
	}
}

func TestLiMaterialization(t *testing.T) {
	cases := []int64{0, 1, -1, 2047, -2048, 2048, 4096, 0x12345, -0x12345,
		0x7FFFFFFF, -0x80000000, 0x100000000, 0x123456789ABCDEF0, -0x123456789ABCDEF0}
	for _, v := range cases {
		a := &assembler{}
		a.li(10, v)
		insts := a.text
		// Emulate the sequence to verify the materialized value.
		var reg int64
		for _, ins := range insts {
			in := ins.in
			switch in.Op {
			case rv64.ADDI:
				if in.Rs1 == 0 {
					reg = in.Imm
				} else {
					reg += in.Imm
				}
			case rv64.LUI:
				reg = in.Imm << 12
			case rv64.ADDIW:
				reg = int64(int32(reg + in.Imm))
			case rv64.SLLI:
				reg <<= uint(in.Imm)
			default:
				t.Fatalf("li %#x: unexpected op %v", v, in.Op)
			}
			if _, err := rv64.Encode(in); err != nil {
				t.Fatalf("li %#x: %v", v, err)
			}
		}
		if reg != v {
			t.Errorf("li %#x materialized %#x", v, reg)
		}
		if len(insts) > 8 {
			t.Errorf("li %#x used %d instructions", v, len(insts))
		}
	}
}

func TestDataDirectivesAndLa(t *testing.T) {
	p := mustAssemble(t, `
		.equ N, 16
		.data
	table:
		.word 1, 2, 3, 4
	msg:
		.asciz "hi"
		.align 3
	big:
		.dword 0x1122334455667788, table
		.space N
		.byte 'a', 0xFF
		.text
		la a0, table
		lw a1, 0(a0)
	`)
	tbl := p.Symbols["table"]
	if tbl != p.DataAddr {
		t.Fatalf("table at %#x, want data base %#x", tbl, p.DataAddr)
	}
	// .word values
	for i, want := range []uint32{1, 2, 3, 4} {
		off := int(tbl-p.DataAddr) + 4*i
		got := uint32(p.Data[off]) | uint32(p.Data[off+1])<<8 | uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24
		if got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
	if string(p.Data[16:19]) != "hi\x00" {
		t.Errorf("asciz wrong: %q", p.Data[16:19])
	}
	big := p.Symbols["big"]
	if big%8 != 0 {
		t.Errorf("big not 8-aligned: %#x", big)
	}
	off := big - p.DataAddr
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p.Data[off+uint64(i)]) << (8 * i)
	}
	if v != 0x1122334455667788 {
		t.Errorf("dword = %#x", v)
	}
	var ref uint64
	for i := 0; i < 8; i++ {
		ref |= uint64(p.Data[off+8+uint64(i)]) << (8 * i)
	}
	if ref != tbl {
		t.Errorf("symbol dword = %#x, want %#x", ref, tbl)
	}
	// la expansion: lui+addi producing the table address
	ins := decodeAll(t, p)
	if ins[0].Op != rv64.LUI || ins[1].Op != rv64.ADDI {
		t.Fatalf("la expansion: %v %v", ins[0].Op, ins[1].Op)
	}
	addr := ins[0].Imm<<12 + ins[1].Imm
	if uint64(addr) != tbl {
		t.Errorf("la computed %#x, want %#x", addr, tbl)
	}
}

func TestPseudoInstructions(t *testing.T) {
	p := mustAssemble(t, `
		.text
		mv   a0, a1
		not  a2, a3
		neg  a4, a5
		seqz a6, a7
		snez t0, t1
		jr   ra
		ret
		fmv.d  fa0, fa1
		fneg.d fa2, fa3
		fabs.d fa4, fa5
		sext.w s0, s1
	`)
	ins := decodeAll(t, p)
	checks := []struct {
		i  int
		op rv64.Op
	}{
		{0, rv64.ADDI}, {1, rv64.XORI}, {2, rv64.SUB}, {3, rv64.SLTIU},
		{4, rv64.SLTU}, {5, rv64.JALR}, {6, rv64.JALR},
		{7, rv64.FSGNJD}, {8, rv64.FSGNJND}, {9, rv64.FSGNJXD}, {10, rv64.ADDIW},
	}
	for _, c := range checks {
		if ins[c.i].Op != c.op {
			t.Errorf("inst %d: %v want %v", c.i, ins[c.i].Op, c.op)
		}
	}
	if ins[7].Rs1 != ins[7].Rs2 {
		t.Error("fmv.d must duplicate source register")
	}
}

func TestHiLoRelocations(t *testing.T) {
	p := mustAssemble(t, `
		.data
		.space 0x900
	x:
		.dword 7
		.text
		lui  a0, %hi(x)
		ld   a1, %lo(x)(a0)
		addi a2, a0, %lo(x)
	`)
	ins := decodeAll(t, p)
	x := p.Symbols["x"]
	hi := ins[0].Imm << 12
	if uint64(hi+ins[1].Imm) != x || uint64(hi+ins[2].Imm) != x {
		t.Errorf("hi/lo reloc: hi=%#x lo(ld)=%d lo(addi)=%d x=%#x", hi, ins[1].Imm, ins[2].Imm, x)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"addx a0, a1, a2",                // unknown mnemonic
		"add a0, a1",                     // wrong operand count
		"\t.text\n\tbeq a0, a1, nowhere", // undefined label
		"lw a0, a1",                      // malformed memory operand
		".bogus 3",                       // unknown directive
		"l: nop\nl: nop",                 // duplicate label
		"add fa0, a1, a2",                // FP register in int slot
		".data\n.word oops-",             // bad expression
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	p := mustAssemble(t, `
	# full-line comment
		.text
		nop          # trailing comment
		nop          // C++ style
		nop          ; semicolon style
	`)
	if len(p.Text) != 3 {
		t.Fatalf("got %d instructions, want 3", len(p.Text))
	}
}
