package sim

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv64"
)

// execOne builds a CPU, seeds registers, executes one decoded instruction
// and returns the CPU.
func execOne(t *testing.T, in rv64.Inst, setup func(*CPU)) *CPU {
	t.Helper()
	c := New()
	raw, err := rv64.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	c.Mem.Write(0x1000, 4, uint64(raw))
	c.PC = 0x1000 // no text window: the fetch decodes from memory
	if setup != nil {
		setup(c)
	}
	if err := c.Step(nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func fbits(v float64) uint64 { return math.Float64bits(v) }

func TestFMinMaxNaNHandling(t *testing.T) {
	// RISC-V fmin/fmax return the non-NaN operand.
	c := execOne(t, rv64.Inst{Op: rv64.FMIND, Rd: 3, Rs1: 1, Rs2: 2}, func(c *CPU) {
		c.F[1] = fbits(math.NaN())
		c.F[2] = fbits(2.5)
	})
	if got := math.Float64frombits(c.F[3]); got != 2.5 {
		t.Errorf("fmin(NaN, 2.5) = %v", got)
	}
	c = execOne(t, rv64.Inst{Op: rv64.FMAXD, Rd: 3, Rs1: 1, Rs2: 2}, func(c *CPU) {
		c.F[1] = fbits(-1)
		c.F[2] = fbits(math.NaN())
	})
	if got := math.Float64frombits(c.F[3]); got != -1 {
		t.Errorf("fmax(-1, NaN) = %v", got)
	}
	// Signed zeros: fmin(-0, +0) = -0, fmax(-0, +0) = +0.
	c = execOne(t, rv64.Inst{Op: rv64.FMIND, Rd: 3, Rs1: 1, Rs2: 2}, func(c *CPU) {
		c.F[1] = fbits(math.Copysign(0, -1))
		c.F[2] = fbits(0)
	})
	if !math.Signbit(math.Float64frombits(c.F[3])) {
		t.Error("fmin(-0, +0) must be -0")
	}
	c = execOne(t, rv64.Inst{Op: rv64.FMAXD, Rd: 3, Rs1: 1, Rs2: 2}, func(c *CPU) {
		c.F[1] = fbits(math.Copysign(0, -1))
		c.F[2] = fbits(0)
	})
	if math.Signbit(math.Float64frombits(c.F[3])) {
		t.Error("fmax(-0, +0) must be +0")
	}
}

func TestSaturatingConversions(t *testing.T) {
	cases := []struct {
		op   rv64.Op
		in   float64
		want uint64
	}{
		{rv64.FCVTLD, 1e300, uint64(math.MaxInt64)},
		{rv64.FCVTLD, -1e300, 1 << 63},
		{rv64.FCVTLD, math.NaN(), uint64(math.MaxInt64)},
		{rv64.FCVTLD, -2.9, uint64(0xFFFFFFFFFFFFFFFE)}, // trunc toward zero: -2
		{rv64.FCVTLUD, -5, 0},
		{rv64.FCVTLUD, 1e300, math.MaxUint64},
		{rv64.FCVTWD, 1e300, uint64(math.MaxInt32)},
		{rv64.FCVTWD, -1e300, 0xFFFFFFFF80000000},
		{rv64.FCVTWUD, 1e300, 0xFFFFFFFFFFFFFFFF}, // MaxUint32 sign-extended
	}
	for _, tc := range cases {
		c := execOne(t, rv64.Inst{Op: tc.op, Rd: 5, Rs1: 1}, func(c *CPU) {
			c.F[1] = fbits(tc.in)
		})
		if c.X[5] != tc.want {
			t.Errorf("%v(%v) = %#x, want %#x", tc.op, tc.in, c.X[5], tc.want)
		}
	}
}

func TestFclassSubnormals(t *testing.T) {
	sub := math.Float64frombits(1) // smallest positive subnormal
	if got := fclass(math.Float64bits(sub)); got != 1<<5 {
		t.Errorf("fclass(+subnormal) = %#x, want bit 5", got)
	}
	if got := fclass(math.Float64bits(-sub)); got != 1<<2 {
		t.Errorf("fclass(-subnormal) = %#x, want bit 2", got)
	}
}

func TestJALRClearsLSB(t *testing.T) {
	// jalr must clear bit 0 of the computed target (spec requirement).
	c := execOne(t, rv64.Inst{Op: rv64.JALR, Rd: 1, Rs1: 5, Imm: 3}, func(c *CPU) {
		c.X[5] = 0x2000
	})
	if c.PC != 0x2002 {
		t.Errorf("jalr target %#x, want 0x2002 (LSB cleared)", c.PC)
	}
	if c.X[1] != 0x1004 {
		t.Errorf("link %#x, want 0x1004", c.X[1])
	}
}

func TestFSgnjBitExact(t *testing.T) {
	// Sign injection operates on raw bits, even for NaN payloads.
	nanBits := uint64(0x7FF8DEADBEEF0001)
	c := execOne(t, rv64.Inst{Op: rv64.FSGNJND, Rd: 3, Rs1: 1, Rs2: 2}, func(c *CPU) {
		c.F[1] = nanBits
		c.F[2] = fbits(1.0) // positive → inject negative
	})
	if c.F[3] != nanBits|1<<63 {
		t.Errorf("fsgnjn payload lost: %#x", c.F[3])
	}
}

func TestFmaddMatchesFMA(t *testing.T) {
	a, b, cc := 1.0000000000000002, 3.999999999999999, -4.000000000000001
	c := execOne(t, rv64.Inst{Op: rv64.FMADDD, Rd: 4, Rs1: 1, Rs2: 2, Rs3: 3}, func(cpu *CPU) {
		cpu.F[1], cpu.F[2], cpu.F[3] = fbits(a), fbits(b), fbits(cc)
	})
	want := math.FMA(a, b, cc)
	if got := math.Float64frombits(c.F[4]); got != want {
		t.Errorf("fmadd fused result %v, want %v (must not double-round)", got, want)
	}
	if mulAdd := a*b + cc; mulAdd == want {
		t.Log("note: chosen operands do not distinguish fused from unfused")
	}
}

// TestDecodeWindowFallback: executing outside the cached text window decodes
// straight from memory.
func TestDecodeWindowFallback(t *testing.T) {
	p, err := asm.Assemble(`
		.text
		li   t0, 0x9000
		jr   t0
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.Load(p)
	// addi a0, zero, 55 ; ecall(exit)
	c.Mem.Write(0x9000, 4, 0x03700513)
	c.Mem.Write(0x9004, 4, 0x05D00893) // li a7, 93
	c.Mem.Write(0x9008, 4, 0x00000073)
	if _, err := c.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !c.Halted || c.Exit != 55 {
		t.Fatalf("halted=%v exit=%d", c.Halted, c.Exit)
	}
}
