package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rv64"
)

// execute is the one executor every entry point sits on: it retires up to
// max instructions (at most len(recs) when recs is non-nil, writing one
// record per instruction) and returns how many retired. It stops early when
// the program halts or an instruction faults; a faulting instruction does
// not retire and leaves the PC pointing at itself.
//
// The loop keeps the PC in a local, fetches a pointer into the predecoded
// text window (no Inst is copied except into a record) and dispatches
// through one switch. System calls, breakpoints and FP arithmetic are routed
// out of line through execSlow; an illegal word never gets this far (the
// assembler emits none, and a fetch outside the window fails to decode).
func (c *CPU) execute(recs []Retired, max int64) (n int64, err error) {
	if c.Halted {
		return 0, nil
	}
	if recs != nil && max > int64(len(recs)) {
		max = int64(len(recs))
	}
	var (
		x    = &c.X
		m    = c.Mem
		pc   = c.PC
		text = c.text
		base = c.textBase
		span = 4 * uint64(len(text)) // window size in bytes; 0 without a window
	)
loop:
	for n < max {
		var in *rv64.Inst
		if off := pc - base; off < span && off&3 == 0 {
			in = &text[off>>2]
		} else if in, err = c.fetchOutside(pc); err != nil {
			break
		}
		var (
			rs1   = x[in.Rs1&31]
			rs2   = x[in.Rs2&31]
			rd    = in.Rd & 31
			imm   = uint64(in.Imm)
			next  = pc + 4
			taken bool
			addr  uint64 // effective address of a load or store
		)

		switch in.Op {
		case rv64.LUI:
			x[rd] = imm << 12
		case rv64.AUIPC:
			x[rd] = pc + imm<<12
		case rv64.JAL:
			x[rd] = pc + 4
			next = pc + imm
			taken = true
		case rv64.JALR:
			x[rd] = pc + 4
			next = (rs1 + imm) &^ 1
			taken = true
		case rv64.BEQ:
			if rs1 == rs2 {
				taken, next = true, pc+imm
			}
		case rv64.BNE:
			if rs1 != rs2 {
				taken, next = true, pc+imm
			}
		case rv64.BLT:
			if int64(rs1) < int64(rs2) {
				taken, next = true, pc+imm
			}
		case rv64.BGE:
			if int64(rs1) >= int64(rs2) {
				taken, next = true, pc+imm
			}
		case rv64.BLTU:
			if rs1 < rs2 {
				taken, next = true, pc+imm
			}
		case rv64.BGEU:
			if rs1 >= rs2 {
				taken, next = true, pc+imm
			}
		case rv64.LB:
			addr = rs1 + imm
			x[rd] = uint64(int64(int8(m.Read8(addr))))
		case rv64.LH:
			addr = rs1 + imm
			x[rd] = uint64(int64(int16(m.Read16(addr))))
		case rv64.LW:
			addr = rs1 + imm
			x[rd] = uint64(int64(int32(m.Read32(addr))))
		case rv64.LD:
			addr = rs1 + imm
			x[rd] = m.Read64(addr)
		case rv64.LBU:
			addr = rs1 + imm
			x[rd] = uint64(m.Read8(addr))
		case rv64.LHU:
			addr = rs1 + imm
			x[rd] = uint64(m.Read16(addr))
		case rv64.LWU:
			addr = rs1 + imm
			x[rd] = uint64(m.Read32(addr))
		case rv64.FLD:
			addr = rs1 + imm
			c.F[rd] = m.Read64(addr)
		case rv64.SB:
			addr = rs1 + imm
			if hitsText(addr, 1, base, span) {
				err = textWrite(pc, addr)
				break loop
			}
			m.Write8(addr, uint8(rs2))
		case rv64.SH:
			addr = rs1 + imm
			if hitsText(addr, 2, base, span) {
				err = textWrite(pc, addr)
				break loop
			}
			m.Write16(addr, uint16(rs2))
		case rv64.SW:
			addr = rs1 + imm
			if hitsText(addr, 4, base, span) {
				err = textWrite(pc, addr)
				break loop
			}
			m.Write32(addr, uint32(rs2))
		case rv64.SD:
			addr = rs1 + imm
			if hitsText(addr, 8, base, span) {
				err = textWrite(pc, addr)
				break loop
			}
			m.Write64(addr, rs2)
		case rv64.FSD:
			addr = rs1 + imm
			if hitsText(addr, 8, base, span) {
				err = textWrite(pc, addr)
				break loop
			}
			m.Write64(addr, c.F[in.Rs2&31])
		case rv64.ADDI:
			x[rd] = rs1 + imm
		case rv64.SLTI:
			x[rd] = b2u(int64(rs1) < in.Imm)
		case rv64.SLTIU:
			x[rd] = b2u(rs1 < imm)
		case rv64.XORI:
			x[rd] = rs1 ^ imm
		case rv64.ORI:
			x[rd] = rs1 | imm
		case rv64.ANDI:
			x[rd] = rs1 & imm
		case rv64.SLLI:
			x[rd] = rs1 << (imm & 63)
		case rv64.SRLI:
			x[rd] = rs1 >> (imm & 63)
		case rv64.SRAI:
			x[rd] = uint64(int64(rs1) >> (imm & 63))
		case rv64.ADD:
			x[rd] = rs1 + rs2
		case rv64.SUB:
			x[rd] = rs1 - rs2
		case rv64.SLL:
			x[rd] = rs1 << (rs2 & 63)
		case rv64.SLT:
			x[rd] = b2u(int64(rs1) < int64(rs2))
		case rv64.SLTU:
			x[rd] = b2u(rs1 < rs2)
		case rv64.XOR:
			x[rd] = rs1 ^ rs2
		case rv64.SRL:
			x[rd] = rs1 >> (rs2 & 63)
		case rv64.SRA:
			x[rd] = uint64(int64(rs1) >> (rs2 & 63))
		case rv64.OR:
			x[rd] = rs1 | rs2
		case rv64.AND:
			x[rd] = rs1 & rs2
		case rv64.ADDIW:
			x[rd] = sext32(int32(rs1) + int32(imm))
		case rv64.SLLIW:
			x[rd] = sext32(int32(rs1) << (imm & 31))
		case rv64.SRLIW:
			x[rd] = sext32(int32(uint32(rs1) >> (imm & 31)))
		case rv64.SRAIW:
			x[rd] = sext32(int32(rs1) >> (imm & 31))
		case rv64.ADDW:
			x[rd] = sext32(int32(rs1) + int32(rs2))
		case rv64.SUBW:
			x[rd] = sext32(int32(rs1) - int32(rs2))
		case rv64.SLLW:
			x[rd] = sext32(int32(rs1) << (rs2 & 31))
		case rv64.SRLW:
			x[rd] = sext32(int32(uint32(rs1) >> (rs2 & 31)))
		case rv64.SRAW:
			x[rd] = sext32(int32(rs1) >> (rs2 & 31))
		case rv64.FENCE:
			// no-op in a single-hart functional model

		case rv64.MUL:
			x[rd] = rs1 * rs2
		case rv64.MULH:
			x[rd] = mulh(int64(rs1), int64(rs2))
		case rv64.MULHSU:
			x[rd] = mulhsu(int64(rs1), rs2)
		case rv64.MULHU:
			x[rd] = mulhu(rs1, rs2)
		case rv64.DIV:
			x[rd] = uint64(divS(int64(rs1), int64(rs2)))
		case rv64.DIVU:
			x[rd] = divU(rs1, rs2)
		case rv64.REM:
			x[rd] = uint64(remS(int64(rs1), int64(rs2)))
		case rv64.REMU:
			x[rd] = remU(rs1, rs2)
		case rv64.MULW:
			x[rd] = sext32(int32(rs1) * int32(rs2))
		case rv64.DIVW:
			x[rd] = sext32(divS32(int32(rs1), int32(rs2)))
		case rv64.DIVUW:
			x[rd] = sext32(int32(divU32(uint32(rs1), uint32(rs2))))
		case rv64.REMW:
			x[rd] = sext32(remS32(int32(rs1), int32(rs2)))
		case rv64.REMUW:
			x[rd] = sext32(int32(remU32(uint32(rs1), uint32(rs2))))

		default:
			c.PC = pc // the slow path reports it
			if err = c.execSlow(in, rs1); err != nil {
				break loop
			}
			if c.Halted {
				max = n + 1 // the exiting ECALL still retires
			}
		}
		x[0] = 0 // cheaper than guarding every write on rd != 0

		if recs != nil {
			r := &recs[n]
			r.PC = pc
			r.NextPC = next
			r.Inst = *in
			r.Taken = taken
			r.MemAddr = addr
		}
		n++
		pc = next
	}
	c.PC = pc
	c.InstRet += uint64(n)
	return n, err
}

// fetchOutside decodes the instruction at a PC the text window does not
// serve: one outside it, or a misaligned one.
func (c *CPU) fetchOutside(pc uint64) (*rv64.Inst, error) {
	if pc&3 != 0 {
		return nil, fmt.Errorf("%w: pc=%#x", ErrMisalignedFetch, pc)
	}
	in, err := rv64.Decode(c.Mem.Read32(pc))
	if err != nil {
		return nil, fmt.Errorf("sim: pc=%#x: %w", pc, err)
	}
	c.outside = in
	return &c.outside, nil
}

// hitsText reports whether a size-byte store at addr overlaps the text
// window [base, base+span): one unsigned compare, exact even when the store
// wraps the address space (span == 0 means no window).
func hitsText(addr, size, base, span uint64) bool {
	return addr-base+(size-1) < span+(size-1) && span != 0
}

func textWrite(pc, addr uint64) error {
	return fmt.Errorf("%w: pc=%#x addr=%#x", ErrTextWrite, pc, addr)
}

func sext32(v int32) uint64 { return uint64(int64(v)) }

// execSlow executes what the main switch routes out of line: system
// instructions and FP arithmetic (none of it touches memory). c.PC is the
// instruction's own PC.
func (c *CPU) execSlow(in *rv64.Inst, rs1 uint64) error {
	f := &c.F
	fd := func(i uint8) float64 { return math.Float64frombits(f[i&31]) }
	rd := in.Rd & 31
	wrf := func(v float64) { f[rd] = math.Float64bits(v) }
	wri := func(v uint64) { c.X[rd] = v } // execute re-zeroes x0
	a, b := fd(in.Rs1), fd(in.Rs2)

	switch in.Op {
	case rv64.ECALL:
		return c.syscall()
	case rv64.EBREAK:
		return ErrBreakpoint
	case rv64.FADDD:
		wrf(a + b)
	case rv64.FSUBD:
		wrf(a - b)
	case rv64.FMULD:
		wrf(a * b)
	case rv64.FDIVD:
		wrf(a / b)
	case rv64.FSQRTD:
		wrf(math.Sqrt(a))
	case rv64.FSGNJD:
		f[rd] = f[in.Rs1&31]&^signBit | f[in.Rs2&31]&signBit
	case rv64.FSGNJND:
		f[rd] = f[in.Rs1&31]&^signBit | ^f[in.Rs2&31]&signBit
	case rv64.FSGNJXD:
		f[rd] = f[in.Rs1&31] ^ f[in.Rs2&31]&signBit
	case rv64.FMIND:
		wrf(fpMin(a, b))
	case rv64.FMAXD:
		wrf(fpMax(a, b))
	case rv64.FCVTWD:
		wri(uint64(int64(satConv32(a))))
	case rv64.FCVTWUD:
		wri(uint64(int64(int32(satConvU32(a))))) // sign-extended per spec
	case rv64.FCVTDW:
		wrf(float64(int32(rs1)))
	case rv64.FCVTDWU:
		wrf(float64(uint32(rs1)))
	case rv64.FCVTLD:
		wri(uint64(satConv64(a)))
	case rv64.FCVTLUD:
		wri(satConvU64(a))
	case rv64.FCVTDL:
		wrf(float64(int64(rs1)))
	case rv64.FCVTDLU:
		wrf(float64(rs1))
	case rv64.FMVXD:
		wri(f[in.Rs1&31])
	case rv64.FMVDX:
		f[rd] = rs1
	case rv64.FEQD:
		wri(b2u(a == b))
	case rv64.FLTD:
		wri(b2u(a < b))
	case rv64.FLED:
		wri(b2u(a <= b))
	case rv64.FCLASSD:
		wri(fclass(f[in.Rs1&31]))
	case rv64.FMADDD:
		wrf(math.FMA(a, b, fd(in.Rs3)))
	case rv64.FMSUBD:
		wrf(math.FMA(a, b, -fd(in.Rs3)))
	case rv64.FNMADDD:
		wrf(-math.FMA(a, b, fd(in.Rs3)))
	case rv64.FNMSUBD:
		wrf(math.FMA(-a, b, fd(in.Rs3)))
	default:
		return fmt.Errorf("sim: unimplemented op %v at pc=%#x", in.Op, c.PC)
	}
	return nil
}

const signBit = uint64(1) << 63

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// mulh returns the high 64 bits of the signed 128-bit product.
func mulh(a, b int64) uint64 {
	hi := mulhu(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi
}

// mulhsu returns the high 64 bits of the signed×unsigned product.
func mulhsu(a int64, b uint64) uint64 {
	hi := mulhu(uint64(a), b)
	if a < 0 {
		hi -= b
	}
	return hi
}

func divS(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	}
	return a / b
}

func remS(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return a % b
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func divS32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt32 && b == -1:
		return math.MinInt32
	}
	return a / b
}

func remS32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt32 && b == -1:
		return 0
	}
	return a % b
}

func divU32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func remU32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}

// fpMin implements RISC-V fmin.d: if one input is NaN, return the other.
func fpMin(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case a == 0 && b == 0:
		if math.Signbit(a) {
			return a
		}
		return b
	case a < b:
		return a
	}
	return b
}

func fpMax(a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	case a == 0 && b == 0:
		if math.Signbit(a) {
			return b
		}
		return a
	case a > b:
		return a
	}
	return b
}

// Saturating float→int conversions with RISC-V semantics (round toward
// zero; NaN converts to the maximum value).
func satConv32(a float64) int32 {
	switch {
	case math.IsNaN(a):
		return math.MaxInt32
	case a >= float64(math.MaxInt32):
		return math.MaxInt32
	case a <= float64(math.MinInt32):
		return math.MinInt32
	}
	return int32(a)
}

func satConvU32(a float64) uint32 {
	switch {
	case math.IsNaN(a):
		return math.MaxUint32
	case a >= float64(math.MaxUint32):
		return math.MaxUint32
	case a <= 0:
		return 0
	}
	return uint32(a)
}

func satConv64(a float64) int64 {
	switch {
	case math.IsNaN(a):
		return math.MaxInt64
	case a >= float64(math.MaxInt64):
		return math.MaxInt64
	case a <= float64(math.MinInt64):
		return math.MinInt64
	}
	return int64(a)
}

func satConvU64(a float64) uint64 {
	switch {
	case math.IsNaN(a):
		return math.MaxUint64
	case a >= float64(math.MaxUint64):
		return math.MaxUint64
	case a <= 0:
		return 0
	}
	return uint64(a)
}

// fclass returns the RISC-V FCLASS.D result bitmask.
func fclass(bits uint64) uint64 {
	v := math.Float64frombits(bits)
	neg := bits&signBit != 0
	exp := bits >> 52 & 0x7FF
	frac := bits & ((1 << 52) - 1)
	switch {
	case math.IsInf(v, -1):
		return 1 << 0
	case math.IsInf(v, 1):
		return 1 << 7
	case math.IsNaN(v):
		if frac>>51 == 1 {
			return 1 << 9 // quiet NaN
		}
		return 1 << 8 // signaling NaN
	case exp == 0 && frac == 0:
		if neg {
			return 1 << 3 // -0
		}
		return 1 << 4 // +0
	case exp == 0:
		if neg {
			return 1 << 2 // negative subnormal
		}
		return 1 << 5 // positive subnormal
	case neg:
		return 1 << 1 // negative normal
	}
	return 1 << 6 // positive normal
}
