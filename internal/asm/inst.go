package asm

import (
	"fmt"
	"strings"

	"repro/internal/rv64"
)

// form is an instruction as a line spells it: a real Op with the fields
// its mnemonic fixes, and the slots its operands fill, in the order written.
// A real mnemonic's form is its Op with the Op's own slots.
type form struct {
	in    rv64.Inst
	slots []rv64.Slot
	dup   bool // rs2 repeats rs1
}

var (
	rdRs1  = []rv64.Slot{rv64.SlotRd, rv64.SlotRs1}
	rdRs2  = []rv64.Slot{rv64.SlotRd, rv64.SlotRs2}
	rs1    = []rv64.Slot{rv64.SlotRs1}
	target = []rv64.Slot{rv64.SlotTarget}
	rs1To  = []rv64.Slot{rv64.SlotRs1, rv64.SlotTarget}
	rs2To  = []rv64.Slot{rv64.SlotRs2, rv64.SlotTarget}
	swapTo = []rv64.Slot{rv64.SlotRs2, rv64.SlotRs1, rv64.SlotTarget}
)

// pseudos are the pseudo-instructions that expand to one instruction; li
// and la expand to more and are handled in instruction.
var pseudos = map[string]form{
	"nop":    {in: rv64.Inst{Op: rv64.ADDI}},
	"mv":     {in: rv64.Inst{Op: rv64.ADDI}, slots: rdRs1},
	"not":    {in: rv64.Inst{Op: rv64.XORI, Imm: -1}, slots: rdRs1},
	"neg":    {in: rv64.Inst{Op: rv64.SUB}, slots: rdRs2},
	"negw":   {in: rv64.Inst{Op: rv64.SUBW}, slots: rdRs2},
	"sext.w": {in: rv64.Inst{Op: rv64.ADDIW}, slots: rdRs1},
	"seqz":   {in: rv64.Inst{Op: rv64.SLTIU, Imm: 1}, slots: rdRs1},
	"snez":   {in: rv64.Inst{Op: rv64.SLTU}, slots: rdRs2},
	"sltz":   {in: rv64.Inst{Op: rv64.SLT}, slots: rdRs1},
	"sgtz":   {in: rv64.Inst{Op: rv64.SLT}, slots: rdRs2},
	"beqz":   {in: rv64.Inst{Op: rv64.BEQ}, slots: rs1To},
	"bnez":   {in: rv64.Inst{Op: rv64.BNE}, slots: rs1To},
	"bltz":   {in: rv64.Inst{Op: rv64.BLT}, slots: rs1To},
	"bgez":   {in: rv64.Inst{Op: rv64.BGE}, slots: rs1To},
	"blez":   {in: rv64.Inst{Op: rv64.BGE}, slots: rs2To}, // 0 >= rs
	"bgtz":   {in: rv64.Inst{Op: rv64.BLT}, slots: rs2To}, // 0 < rs
	"bgt":    {in: rv64.Inst{Op: rv64.BLT}, slots: swapTo},
	"ble":    {in: rv64.Inst{Op: rv64.BGE}, slots: swapTo},
	"bgtu":   {in: rv64.Inst{Op: rv64.BLTU}, slots: swapTo},
	"bleu":   {in: rv64.Inst{Op: rv64.BGEU}, slots: swapTo},
	"j":      {in: rv64.Inst{Op: rv64.JAL}, slots: target},
	"tail":   {in: rv64.Inst{Op: rv64.JAL}, slots: target},
	"call":   {in: rv64.Inst{Op: rv64.JAL, Rd: rv64.RegRA}, slots: target},
	"jr":     {in: rv64.Inst{Op: rv64.JALR}, slots: rs1},
	"ret":    {in: rv64.Inst{Op: rv64.JALR, Rs1: rv64.RegRA}},
	"fmv.d":  {in: rv64.Inst{Op: rv64.FSGNJD}, slots: rdRs1, dup: true},
	"fneg.d": {in: rv64.Inst{Op: rv64.FSGNJND}, slots: rdRs1, dup: true},
	"fabs.d": {in: rv64.Inst{Op: rv64.FSGNJXD}, slots: rdRs1, dup: true},
}

// instruction parses one instruction (or pseudo-instruction) line and emits
// the resulting machine instructions.
func (a *assembler) instruction(s string) error {
	if a.sec != secText {
		return a.errf("instruction outside .text")
	}
	mn, rest, _ := strings.Cut(s, " ")
	if i := strings.IndexByte(mn, '\t'); i >= 0 {
		rest = mn[i+1:] + " " + rest
		mn = mn[:i]
	}
	mn = strings.ToLower(strings.TrimSpace(mn))
	args := a.splitOperands(rest)

	if mn == "li" || mn == "la" {
		if len(args) != 2 {
			return a.errf("%s expects 2 operands, got %d", mn, len(args))
		}
		rd, err := a.reg(args[0], false)
		if err != nil {
			return err
		}
		if mn == "la" {
			a.emit(inst{in: rv64.Inst{Op: rv64.LUI, Rd: rd}, reloc: relHi, sym: args[1]})
			a.emit(inst{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Rs1: rd}, reloc: relLo, sym: args[1]})
			return nil
		}
		v, err := a.intExpr(args[1])
		if err != nil {
			return err
		}
		a.li(rd, v)
		return nil
	}
	p, ok := pseudos[mn]
	if !ok {
		op, ok := rv64.OpByName(mn)
		if !ok {
			return a.errf("unknown mnemonic %q", mn)
		}
		p = form{in: rv64.Inst{Op: op}, slots: op.Operands()}
		// "jal target" links ra and "jalr rs1" links zero, as call and jr
		// do; "jalr rd, rs1" has no offset.
		switch {
		case (op == rv64.JAL || op == rv64.JALR) && (len(args) < 1 || len(args) > 2):
			return a.errf("%s expects 1 or 2 operands", mn)
		case op == rv64.JAL && len(args) == 1:
			p = pseudos["call"]
		case op == rv64.JALR && len(args) == 1:
			p = pseudos["jr"]
		case op == rv64.JALR:
			if _, ok := rv64.IntReg(args[1]); ok {
				p.slots = rdRs1
			}
		}
	} else if mn == "nop" {
		args = nil // nop ignores any operands it is given
	}
	in, err := a.fill(mn, p, args)
	if err != nil {
		return err
	}
	a.emit(in)
	return nil
}

// fill parses args into p's slots, each register from the file p's Op
// reads it from.
func (a *assembler) fill(mn string, p form, args []string) (inst, error) {
	if len(args) != len(p.slots) {
		return inst{}, a.errf("%s expects %d operands, got %d", mn, len(p.slots), len(args))
	}
	out, op := inst{in: p.in}, p.in.Op
	var err error
	for i, s := range p.slots {
		switch s {
		case rv64.SlotRd:
			out.in.Rd, err = a.reg(args[i], op.FPRd())
		case rv64.SlotRs1:
			out.in.Rs1, err = a.reg(args[i], op.FPRs1())
		case rv64.SlotRs2:
			out.in.Rs2, err = a.reg(args[i], op.FPRs2())
		case rv64.SlotRs3:
			out.in.Rs3, err = a.reg(args[i], op.FPRs3())
		case rv64.SlotHi:
			err = a.imm(&out, args[i], "%hi", relHi)
		case rv64.SlotLo:
			err = a.imm(&out, args[i], "%lo", relLo)
		case rv64.SlotMem:
			err = a.mem(&out, args[i])
		case rv64.SlotTarget:
			out.reloc, out.sym = relBranch, args[i]
		}
		if err != nil {
			return inst{}, err
		}
	}
	if p.dup {
		out.in.Rs2 = out.in.Rs1
	}
	return out, nil
}

func (a *assembler) reg(s string, fp bool) (uint8, error) {
	if fp {
		if r, ok := rv64.FPReg(s); ok {
			return r, nil
		}
		return 0, a.errf("bad FP register %q", s)
	}
	if r, ok := rv64.IntReg(s); ok {
		return r, nil
	}
	return 0, a.errf("bad register %q", s)
}

// imm reads an immediate into out, or a symbol under the relocation
// operator rel ("%hi(sym)", "%lo(sym)").
func (a *assembler) imm(out *inst, s, rel string, r reloc) (err error) {
	if sym, ok := cutCall(s, rel); ok {
		out.reloc, out.sym = r, sym
		return nil
	}
	out.in.Imm, err = a.intExpr(s)
	return err
}

// mem parses "off(reg)", "(reg)" or "%lo(sym)(reg)" into out.
func (a *assembler) mem(out *inst, s string) error {
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return a.errf("bad memory operand %q", s)
	}
	base := s[open+1 : len(s)-1]
	r, ok := rv64.IntReg(base)
	if !ok {
		return a.errf("bad base register %q", base)
	}
	out.in.Rs1 = r
	if off := strings.TrimSpace(s[:open]); off != "" {
		return a.imm(out, off, "%lo", relLo)
	}
	return nil
}

// cutCall matches "prefix(inner)" and returns inner.
func cutCall(s, prefix string) (string, bool) {
	if strings.HasPrefix(s, prefix+"(") && strings.HasSuffix(s, ")") {
		return strings.TrimSpace(s[len(prefix)+1 : len(s)-1]), true
	}
	return "", false
}

// li emits the shortest lui/addiw/slli/addi sequence that loads the 64-bit
// constant v into rd, mirroring the standard toolchain expansion.
func (a *assembler) li(rd uint8, v int64) {
	if v >= -2048 && v <= 2047 {
		a.emit(inst{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Imm: v}})
		return
	}
	if v >= -(1<<31) && v < 1<<31 {
		hi := (v + 0x800) >> 12
		lo := v - hi<<12
		hi = int64(int32(hi<<12)) >> 12 // canonical signed 20-bit
		a.emit(inst{in: rv64.Inst{Op: rv64.LUI, Rd: rd, Imm: hi}})
		if lo != 0 {
			a.emit(inst{in: rv64.Inst{Op: rv64.ADDIW, Rd: rd, Rs1: rd, Imm: lo}})
		}
		return
	}
	lo := v << 52 >> 52 // sign-extended low 12 bits
	a.li(rd, (v-lo)>>12)
	a.emit(inst{in: rv64.Inst{Op: rv64.SLLI, Rd: rd, Rs1: rd, Imm: 12}})
	if lo != 0 {
		a.emit(inst{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Rs1: rd, Imm: lo}})
	}
}

// pass2 resolves symbols and encodes the text section, and patches the
// data section's symbol references. Of the errors it finds it reports the
// one on the earliest line, as resolving the lines in source order would.
func (a *assembler) pass2() (*Program, error) {
	p := &Program{
		TextAddr: a.textBase,
		DataAddr: a.dataBase,
		Entry:    a.textBase,
		Symbols:  a.labels,
		Text:     make([]uint32, len(a.text)),
		Data:     a.data,
	}
	var first *Error
	for i := range a.text {
		raw, err := a.encode(&a.text[i], a.textBase+4*uint64(i))
		if err != nil {
			first = err
			break
		}
		p.Text[i] = raw
	}
	for _, ref := range a.dataRefs {
		if first != nil && first.Line < ref.line {
			break
		}
		v, err := a.resolve(ref.line, ref.symbol)
		if err != nil {
			first = err
			break
		}
		putLE(p.Data[ref.offset:][:ref.size], v)
	}
	if first != nil {
		return nil, first
	}
	// Decode from the encoded words, not from the assembler's own Inst
	// values, so the image is exactly what fetching the bytes would give.
	// Every word came out of rv64.Encode, so Decode cannot fail.
	p.Insts = make([]rv64.Inst, len(p.Text))
	for i, raw := range p.Text {
		p.Insts[i], _ = rv64.Decode(raw)
	}
	return p, nil
}

// resolve returns the value of a label or .equ constant named on line.
func (a *assembler) resolve(line int, sym string) (uint64, *Error) {
	if v, ok := a.labels[sym]; ok {
		return v, nil
	}
	if v, ok := a.equ[sym]; ok {
		return uint64(v), nil
	}
	return 0, &Error{Line: line, Msg: fmt.Sprintf("undefined symbol %q", sym)}
}

// encode resolves ins's relocation at pc and encodes it.
func (a *assembler) encode(ins *inst, pc uint64) (uint32, *Error) {
	line := int(ins.line)
	in := ins.in
	switch ins.reloc {
	case relBranch:
		// Branch/jump targets may also be numeric PC-relative offsets
		// (the disassembler emits this form): "beq a0, a1, -12".
		if !isIdent(ins.sym) {
			if v, err := a.intExpr(ins.sym); err == nil {
				in.Imm = v
				break
			}
		}
		target, err := a.resolve(line, ins.sym)
		if err != nil {
			return 0, err
		}
		in.Imm = int64(target) - int64(pc)
	case relHi:
		target, err := a.resolve(line, ins.sym)
		if err != nil {
			return 0, err
		}
		hi := (int64(target) + 0x800) >> 12
		in.Imm = int64(int32(hi<<12)) >> 12
	case relLo:
		target, err := a.resolve(line, ins.sym)
		if err != nil {
			return 0, err
		}
		hi := (int64(target) + 0x800) >> 12
		in.Imm = int64(target) - hi<<12
	}
	raw, err := rv64.Encode(in)
	if err != nil {
		return 0, &Error{Line: line, Msg: err.Error()}
	}
	return raw, nil
}
