package rv64

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

func TestDisassembleGolden(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 10, Rs1: 11, Rs2: 12}, "add a0, a1, a2"},
		{Inst{Op: ADDI, Rd: 5, Rs1: 6, Imm: -42}, "addi t0, t1, -42"},
		{Inst{Op: LD, Rd: 13, Rs1: 2, Imm: 16}, "ld a3, 16(sp)"},
		{Inst{Op: SD, Rs1: 2, Rs2: 13, Imm: -8}, "sd a3, -8(sp)"},
		{Inst{Op: BEQ, Rs1: 10, Rs2: 11, Imm: 64}, "beq a0, a1, 64"},
		{Inst{Op: JAL, Rd: 1, Imm: -2048}, "jal ra, -2048"},
		{Inst{Op: JALR, Rd: 0, Rs1: 1, Imm: 0}, "jalr zero, 0(ra)"},
		{Inst{Op: LUI, Rd: 10, Imm: 1000}, "lui a0, 1000"},
		{Inst{Op: ECALL}, "ecall"},
		{Inst{Op: FLD, Rd: 10, Rs1: 11, Imm: 8}, "fld fa0, 8(a1)"},
		{Inst{Op: FSD, Rs1: 11, Rs2: 10, Imm: 8}, "fsd fa0, 8(a1)"},
		{Inst{Op: FADDD, Rd: 10, Rs1: 11, Rs2: 12}, "fadd.d fa0, fa1, fa2"},
		{Inst{Op: FMADDD, Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4}, "fmadd.d ft1, ft2, ft3, ft4"},
		{Inst{Op: FEQD, Rd: 10, Rs1: 11, Rs2: 12}, "feq.d a0, fa1, fa2"},
		{Inst{Op: FCVTLD, Rd: 10, Rs1: 11}, "fcvt.l.d a0, fa1"},
		{Inst{Op: FMVDX, Rd: 10, Rs1: 11}, "fmv.d.x fa0, a1"},
		{Inst{Op: FSQRTD, Rd: 10, Rs1: 11}, "fsqrt.d fa0, fa1"},
		{Inst{Op: SLLI, Rd: 10, Rs1: 10, Imm: 13}, "slli a0, a0, 13"},
		{Inst{Op: MULHSU, Rd: 7, Rs1: 8, Rs2: 9}, "mulhsu t2, s0, s1"},
	}
	for _, c := range cases {
		if got := Disassemble(c.in); got != c.want {
			t.Errorf("Disassemble(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestDecodeFuzzNoPanic: Decode must never panic and must round-trip
// whatever it accepts.
func TestDecodeFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < 200_000; i++ {
		raw := rng.Uint32()
		in, err := Decode(raw)
		if err != nil {
			continue
		}
		re, err := Encode(in)
		if err != nil {
			t.Fatalf("decoded %#08x to %+v but cannot re-encode: %v", raw, in, err)
		}
		// Re-encoding may canonicalize don't-care bits (e.g. rounding-mode
		// fields); the re-encoded word must decode to the same instruction.
		in2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %#08x undecodable: %v", re, err)
		}
		if in.Op != in2.Op || in.Rd != in2.Rd || in.Rs1 != in2.Rs1 ||
			in.Rs2 != in2.Rs2 || in.Rs3 != in2.Rs3 || in.Imm != in2.Imm {
			t.Fatalf("unstable decode: %#08x → %+v vs %#08x → %+v", raw, in, re, in2)
		}
		// Disassembly of any decodable word must not panic.
		_ = Disassemble(in)
	}
}

// disassembleDigest pins the text Disassemble gives for every known
// encoding and for 2^20 seeded random words, the rejected ones included (a
// rejected word decodes to the ILLEGAL Op). A change to any disassembled
// string moves it.
const disassembleDigest = "2ba6a93b75239f88a9b426dfe162daacf7e7f297287bd1ae4bc7c9d324f57ae1"

func TestDisassembleDigest(t *testing.T) {
	h := sha256.New()
	add := func(raw uint32) {
		in, _ := Decode(raw)
		h.Write([]byte(Disassemble(in)))
		h.Write([]byte{0})
	}
	for _, c := range knownEncodings {
		add(c.raw)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1<<20; i++ {
		add(rng.Uint32())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != disassembleDigest {
		t.Fatalf("disassemble digest %s, want %s", got, disassembleDigest)
	}
}
