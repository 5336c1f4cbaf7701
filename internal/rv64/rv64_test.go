package rv64

import (
	"math/rand"
	"testing"
)

// allEncodableOps returns every op that Encode supports.
func allEncodableOps() []Op {
	var out []Op
	for op := Op(1); op < numOps; op++ {
		if ops[op].name != "" {
			out = append(out, op)
		}
	}
	return out
}

func randImm(rng *rand.Rand, op Op) int64 {
	switch ops[op].fmt {
	case fmtI, fmtS:
		return int64(rng.Intn(4096)) - 2048
	case fmtB:
		return (int64(rng.Intn(4096)) - 2048) * 2
	case fmtU:
		return int64(rng.Intn(1<<20)) - 1<<19
	case fmtJ:
		return (int64(rng.Intn(1<<20)) - 1<<19) * 2
	case fmtShift:
		return int64(rng.Intn(64))
	case fmtShiftW:
		return int64(rng.Intn(32))
	}
	return 0
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range allEncodableOps() {
		for trial := 0; trial < 50; trial++ {
			in := Inst{
				Op:  op,
				Rd:  uint8(rng.Intn(32)),
				Rs1: uint8(rng.Intn(32)),
				Rs2: uint8(rng.Intn(32)),
				Rs3: uint8(rng.Intn(32)),
				Imm: randImm(rng, op),
			}
			raw, err := Encode(in)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			got, err := Decode(raw)
			if err != nil {
				t.Fatalf("%v: decode %#08x: %v", op, raw, err)
			}
			if got.Op != op {
				t.Fatalf("round trip op: have %v want %v (raw %#08x)", got.Op, op, raw)
			}
			if op.HasRd() && got.Rd != in.Rd {
				t.Fatalf("%v: rd %d != %d", op, got.Rd, in.Rd)
			}
			if op.HasRs1() && got.Rs1 != in.Rs1 {
				t.Fatalf("%v: rs1 %d != %d", op, got.Rs1, in.Rs1)
			}
			if op.HasRs2() && got.Rs2 != in.Rs2 {
				t.Fatalf("%v: rs2 %d != %d", op, got.Rs2, in.Rs2)
			}
			if op.HasRs3() && got.Rs3 != in.Rs3 {
				t.Fatalf("%v: rs3 %d != %d", op, got.Rs3, in.Rs3)
			}
			switch ops[op].fmt {
			case fmtI, fmtS, fmtB, fmtJ, fmtShift, fmtShiftW:
				if got.Imm != in.Imm {
					t.Fatalf("%v: imm %d != %d (raw %#08x)", op, got.Imm, in.Imm, raw)
				}
			case fmtU:
				want := in.Imm
				if got.Imm != want {
					t.Fatalf("%v: imm %d != %d", op, got.Imm, want)
				}
			}
		}
	}
}

// knownEncodings are golden encodings cross-checked against the RISC-V spec
// examples. FuzzDecode seeds from them.
var knownEncodings = []struct {
	raw  uint32
	want Inst
}{
	{0x00000013, Inst{Op: ADDI}},                           // nop = addi x0,x0,0
	{0x00A28293, Inst{Op: ADDI, Rd: 5, Rs1: 5, Imm: 10}},   // addi t0,t0,10
	{0x00B50633, Inst{Op: ADD, Rd: 12, Rs1: 10, Rs2: 11}},  // add a2,a0,a1
	{0x40B50633, Inst{Op: SUB, Rd: 12, Rs1: 10, Rs2: 11}},  // sub a2,a0,a1
	{0x02B50633, Inst{Op: MUL, Rd: 12, Rs1: 10, Rs2: 11}},  // mul a2,a0,a1
	{0x0005A503, Inst{Op: LW, Rd: 10, Rs1: 11, Imm: 0}},    // lw a0,0(a1)
	{0x00A5B023, Inst{Op: SD, Rs1: 11, Rs2: 10, Imm: 0}},   // sd a0,0(a1)
	{0x00000073, Inst{Op: ECALL}},                          // ecall
	{0xFE5214E3, Inst{Op: BNE, Rs1: 4, Rs2: 5, Imm: -24}},  // bne tp,t0,-24
	{0x00C0006F, Inst{Op: JAL, Rd: 0, Imm: 12}},            // j +12
	{0x000080E7, Inst{Op: JALR, Rd: 1, Rs1: 1, Imm: 0}},    // jalr ra,0(ra)
	{0x000125B7, Inst{Op: LUI, Rd: 11, Imm: 0x12}},         // lui a1,0x12
	{0x02B575B3, Inst{Op: REMU, Rd: 11, Rs1: 10, Rs2: 11}}, // remu a1,a0,a1
	{0x01F51513, Inst{Op: SLLI, Rd: 10, Rs1: 10, Imm: 31}}, // slli a0,a0,31
	{0x43F55513, Inst{Op: SRAI, Rd: 10, Rs1: 10, Imm: 63}}, // srai a0,a0,63
}

func TestDecodeKnownEncodings(t *testing.T) {
	for _, c := range knownEncodings {
		got, err := Decode(c.raw)
		if err != nil {
			t.Fatalf("decode %#08x: %v", c.raw, err)
		}
		if got.Op != c.want.Op || got.Rd != c.want.Rd || got.Rs1 != c.want.Rs1 ||
			got.Rs2 != c.want.Rs2 || got.Imm != c.want.Imm {
			t.Errorf("decode %#08x: have %+v want %+v", c.raw, got, c.want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range []uint32{0x00000000, 0xFFFFFFFF, 0x0000007F, 0x00007057} {
		if _, err := Decode(raw); err == nil {
			t.Errorf("decode %#08x: expected error", raw)
		}
	}
}

func TestClassAssignments(t *testing.T) {
	cases := map[Op]Class{
		ADD: ClassALU, MUL: ClassMul, DIV: ClassDiv, LD: ClassLoad,
		SD: ClassStore, BEQ: ClassBranch, JAL: ClassJAL, JALR: ClassJALR,
		FADDD: ClassFPALU, FMULD: ClassFPMul, FDIVD: ClassFPDiv,
		FMADDD: ClassFPMul, FSQRTD: ClassFPDiv, ECALL: ClassSystem,
		FLD: ClassLoad, FSD: ClassStore,
	}
	for op, want := range cases {
		if op.Class() != want {
			t.Errorf("%v: class %v want %v", op, op.Class(), want)
		}
	}
}

func TestRegisterFlags(t *testing.T) {
	if !FLD.FPRd() || FLD.FPRs1() {
		t.Error("fld must write FP rd and read int rs1")
	}
	if !FSD.FPRs2() || FSD.FPRs1() {
		t.Error("fsd must read FP rs2 and int rs1")
	}
	if FEQD.FPRd() || !FEQD.FPRs1() || !FEQD.FPRs2() {
		t.Error("feq.d writes int rd from FP sources")
	}
	if !FMADDD.HasRs3() || !FMADDD.FPRs3() {
		t.Error("fmadd.d reads FP rs3")
	}
	if SD.HasRd() || BEQ.HasRd() {
		t.Error("stores and branches have no rd")
	}
	if LD.MemBytes() != 8 || LW.MemBytes() != 4 || SB.MemBytes() != 1 {
		t.Error("wrong memory access widths")
	}
}

func TestRegLookup(t *testing.T) {
	for i, name := range IntRegNames {
		r, ok := IntReg(name)
		if !ok || r != uint8(i) {
			t.Errorf("IntReg(%q) = %d,%v want %d", name, r, ok, i)
		}
	}
	if r, ok := IntReg("x31"); !ok || r != 31 {
		t.Errorf("IntReg(x31) = %d,%v", r, ok)
	}
	if r, ok := IntReg("fp"); !ok || r != 8 {
		t.Errorf("IntReg(fp) = %d,%v", r, ok)
	}
	if r, ok := FPReg("fa0"); !ok || r != 10 {
		t.Errorf("FPReg(fa0) = %d,%v", r, ok)
	}
	if _, ok := IntReg("bogus"); ok {
		t.Error("IntReg(bogus) should fail")
	}
}
