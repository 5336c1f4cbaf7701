package asm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rv64"
)

// TestDisassembleAssembleRoundTrip is the toolchain closure property: for
// every operation, a random instruction must survive encode → decode →
// disassemble → assemble with an identical machine word.
func TestDisassembleAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for op := rv64.Op(1); op < 200; op++ {
		name := op.Name()
		if strings.HasPrefix(name, "op(") {
			break // past the last defined op
		}
		for trial := 0; trial < 40; trial++ {
			in := rv64.Inst{
				Op:  op,
				Rd:  uint8(rng.Intn(32)),
				Rs1: uint8(rng.Intn(32)),
				Rs2: uint8(rng.Intn(32)),
				Rs3: uint8(rng.Intn(32)),
				Imm: roundTripImm(rng, op),
			}
			raw, err := rv64.Encode(in)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			dec, err := rv64.Decode(raw)
			if err != nil {
				t.Fatalf("%v: decode: %v", op, err)
			}
			line := rv64.Disassemble(dec)
			p, err := Assemble("\t.text\n\t" + line + "\n")
			if err != nil {
				t.Fatalf("%v: assemble %q: %v", op, line, err)
			}
			if len(p.Text) != 1 {
				t.Fatalf("%v: %q assembled to %d words", op, line, len(p.Text))
			}
			if p.Text[0] != raw {
				redec, _ := rv64.Decode(p.Text[0])
				t.Fatalf("%v: round trip %q: %#08x → %#08x (%+v vs %+v)",
					op, line, raw, p.Text[0], dec, redec)
			}
		}
	}
}

func roundTripImm(rng *rand.Rand, op rv64.Op) int64 {
	switch op.Class() {
	case rv64.ClassBranch:
		return (int64(rng.Intn(2048)) - 1024) * 2
	case rv64.ClassJAL:
		return (int64(rng.Intn(1<<19)) - 1<<18) * 2
	case rv64.ClassJALR, rv64.ClassLoad, rv64.ClassStore:
		return int64(rng.Intn(4096)) - 2048
	}
	switch op {
	case rv64.LUI, rv64.AUIPC:
		return int64(rng.Intn(1<<20)) - 1<<19
	case rv64.SLLI, rv64.SRLI, rv64.SRAI:
		return int64(rng.Intn(64))
	case rv64.SLLIW, rv64.SRLIW, rv64.SRAIW:
		return int64(rng.Intn(32))
	case rv64.ADDI, rv64.SLTI, rv64.SLTIU, rv64.XORI, rv64.ORI, rv64.ANDI, rv64.ADDIW:
		return int64(rng.Intn(4096)) - 2048
	}
	return 0
}

// TestAssembleNeverPanics feeds adversarial garbage: errors are fine,
// panics are not.
func TestAssembleNeverPanics(t *testing.T) {
	try := func(src string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", src, r)
			}
		}()
		_, err = Assemble(src)
		return err
	}
	for _, src := range PanicLines {
		if _, ok := try(src).(*Error); !ok {
			t.Errorf("%q: want an *Error", src)
		}
	}
	rng := rand.New(rand.NewSource(5))
	chars := []byte("abcxyz0189,()%.:#\"\\ \t-+*")
	for i := 0; i < 3000; i++ {
		n := rng.Intn(60)
		b := make([]byte, n)
		for j := range b {
			b[j] = chars[rng.Intn(len(chars))]
		}
		try(".text\n" + string(b) + "\n.data\n" + string(b))
	}
}

// TestNumericBranchTargets covers the disassembler's offset form.
func TestNumericBranchTargets(t *testing.T) {
	p := mustAssemble(t, `
		.text
		beq a0, a1, 8
		nop
		nop
		j -8
	`)
	ins := decodeAll(t, p)
	if ins[0].Imm != 8 {
		t.Errorf("beq offset %d", ins[0].Imm)
	}
	if ins[3].Imm != -8 {
		t.Errorf("j offset %d", ins[3].Imm)
	}
}
