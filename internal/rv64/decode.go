package rv64

import "fmt"

// Decode unpacks one 32-bit machine word. It returns an error for encodings
// outside the supported RV64IMD subset. It is Encode read backwards: it scans
// the Ops that share the word's opcode for the one whose fixed bits match,
// then extracts the operands the Op's format places in the word.
func Decode(raw uint32) (Inst, error) {
	for _, p := range patterns[raw&0x7F] {
		if raw&p.mask == p.bits {
			return operands(p.op, raw), nil
		}
	}
	return Inst{Raw: raw}, illegalInst(raw)
}

// illegalInst is the error of a word Decode rejects. It is formatted only
// when read, so rejecting a word costs no formatting.
type illegalInst uint32

func (w illegalInst) Error() string {
	return fmt.Sprintf("rv64: illegal instruction %#08x", uint32(w))
}

// pattern is one Op's fixed bits: a word decodes to op when raw&mask == bits.
type pattern struct {
	mask, bits uint32
	op         Op
}

// patterns indexes every Op's pattern by opcode. The bits are Encode's own
// output for the Op with zero operands, so the two directions cannot drift.
var patterns = func() (t [128][]pattern) {
	for op := Op(1); op < numOps; op++ {
		raw, _ := Encode(Inst{Op: op}) // zero operands are in every format's range
		m := fixedBits(&ops[op])
		t[raw&0x7F] = append(t[raw&0x7F], pattern{m, raw & m, op})
	}
	return t
}()

// fixedBits returns the mask of the bits that select info's Op: those its
// format gives to no operand, less the ones decoding ignores (a rounding
// mode, fence's fields).
func fixedBits(info *opInfo) uint32 {
	const opcode, funct3, rs2, funct7 = 0x7F, 0x7 << 12, 0x1F << 20, 0x7F << 25
	switch info.fmt {
	case fmtR:
		m := uint32(opcode | funct7)
		if !info.anyF3 {
			m |= funct3
		}
		if info.selRs2 {
			m |= rs2
		}
		return m
	case fmtR4:
		return opcode | 3<<25 // the fmt field selects double precision
	case fmtI, fmtS, fmtB:
		return opcode | funct3
	case fmtShift:
		return opcode | funct3 | 0x3F<<26 // bit 25 is shamt[5]
	case fmtShiftW:
		return opcode | funct3 | funct7
	case fmtNone:
		if info.opcode == 0x73 { // ecall and ebreak are whole words, fence its opcode
			return ^uint32(0)
		}
	}
	return opcode
}

// operands fills the register and immediate fields op's format places in
// raw, with the immediates sign-extended as the RISC-V spec assembles them.
func operands(op Op, raw uint32) Inst {
	in := Inst{Op: op, Raw: raw, Rd: uint8(raw >> 7 & 31),
		Rs1: uint8(raw >> 15 & 31), Rs2: uint8(raw >> 20 & 31)}
	switch ops[op].fmt {
	case fmtR4:
		in.Rs3 = uint8(raw >> 27)
	case fmtI:
		in.Imm = int64(int32(raw)) >> 20
	case fmtS:
		in.Imm = int64(int32(raw&0xFE000000))>>20 | int64(raw>>7&0x1F)
	case fmtB:
		in.Imm = int64(int32(raw&0x80000000))>>19 |
			int64(raw>>7&1)<<11 | int64(raw>>25&0x3F)<<5 | int64(raw>>8&0xF)<<1
	case fmtU:
		in.Imm = int64(int32(raw)) >> 12
	case fmtJ:
		in.Imm = int64(int32(raw&0x80000000))>>11 |
			int64(raw>>12&0xFF)<<12 | int64(raw>>20&1)<<11 | int64(raw>>21&0x3FF)<<1
	case fmtShift:
		in.Imm = int64(raw >> 20 & 63)
	case fmtShiftW:
		in.Imm = int64(raw >> 20 & 31)
	}
	normalize(&in)
	return in
}

// normalize clears register fields the instruction does not use, so that
// decoded instructions compare cleanly and downstream consumers never see
// leftover bit-field noise (e.g. the shamt in the rs2 slot of shifts).
func normalize(in *Inst) {
	if !in.Op.HasRd() {
		in.Rd = 0
	}
	if !in.Op.HasRs1() {
		in.Rs1 = 0
	}
	if !in.Op.HasRs2() {
		in.Rs2 = 0
	}
	if !in.Op.HasRs3() {
		in.Rs3 = 0
	}
}
