package rv64

import "strconv"

// Disassemble renders in as assembler syntax accepted by internal/asm by
// walking its Op's operand slots, with branch/jump targets shown as numeric
// offsets. It is the inverse of the assembler for single instructions and
// is used for debugging, traces and the encode/decode round-trip property
// tests.
func Disassemble(in Inst) string {
	b := append(make([]byte, 0, 32), in.Op.Name()...)
	sep := " "
	for _, s := range in.Op.Operands() {
		b = append(b, sep...)
		sep = ", "
		switch s {
		case SlotRd:
			b = append(b, regName(in.Rd, in.Op.FPRd())...)
		case SlotRs1:
			b = append(b, regName(in.Rs1, in.Op.FPRs1())...)
		case SlotRs2:
			b = append(b, regName(in.Rs2, in.Op.FPRs2())...)
		case SlotRs3:
			b = append(b, regName(in.Rs3, in.Op.FPRs3())...)
		case SlotMem:
			b = strconv.AppendInt(b, in.Imm, 10)
			b = append(append(append(b, '('), IntRegNames[in.Rs1&31]...), ')')
		default: // SlotHi, SlotLo, SlotTarget
			b = strconv.AppendInt(b, in.Imm, 10)
		}
	}
	return string(b)
}

func regName(r uint8, fp bool) string {
	if fp {
		return FPRegNames[r&31]
	}
	return IntRegNames[r&31]
}
