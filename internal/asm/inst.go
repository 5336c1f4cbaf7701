package asm

import (
	"fmt"
	"strings"

	"repro/internal/rv64"
)

// instruction parses one instruction (or pseudo-instruction) line and emits
// the resulting machine instructions as a single item.
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
	args := splitOperands(rest)

	if insts, handled, err := a.pseudo(mn, args); err != nil {
		return err
	} else if handled {
		a.emit(&item{insts: insts})
		return nil
	}

	op, ok := rv64.OpByName(mn)
	if !ok {
		return a.errf("unknown mnemonic %q", mn)
	}
	in, err := a.parseOp(op, args)
	if err != nil {
		return err
	}
	a.emit(&item{insts: []inst{in}})
	return nil
}

func (a *assembler) parseOp(op rv64.Op, args []string) (inst, error) {
	none := inst{}
	need := func(n int) error {
		if len(args) != n {
			return a.errf("%s expects %d operands, got %d", op.Name(), n, len(args))
		}
		return nil
	}
	reg := func(s string, fp bool) (uint8, error) {
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

	switch op.Class() {
	case rv64.ClassLoad:
		if err := need(2); err != nil {
			return none, err
		}
		rd, err := reg(args[0], op.FPRd())
		if err != nil {
			return none, err
		}
		off, base, rel, sym, err := a.memOperand(args[1])
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: base, Imm: off}, reloc: rel, sym: sym}, nil
	case rv64.ClassStore:
		if err := need(2); err != nil {
			return none, err
		}
		rs2, err := reg(args[0], op.FPRs2())
		if err != nil {
			return none, err
		}
		off, base, rel, sym, err := a.memOperand(args[1])
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rs2: rs2, Rs1: base, Imm: off}, reloc: rel, sym: sym}, nil
	case rv64.ClassBranch:
		if err := need(3); err != nil {
			return none, err
		}
		rs1, err := reg(args[0], false)
		if err != nil {
			return none, err
		}
		rs2, err := reg(args[1], false)
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rs1: rs1, Rs2: rs2}, reloc: relBranch, sym: args[2]}, nil
	case rv64.ClassJAL:
		switch len(args) {
		case 1:
			return inst{in: rv64.Inst{Op: op, Rd: rv64.RegRA}, reloc: relBranch, sym: args[0]}, nil
		case 2:
			rd, err := reg(args[0], false)
			if err != nil {
				return none, err
			}
			return inst{in: rv64.Inst{Op: op, Rd: rd}, reloc: relBranch, sym: args[1]}, nil
		}
		return none, a.errf("jal expects 1 or 2 operands")
	case rv64.ClassJALR:
		switch len(args) {
		case 1:
			rs1, err := reg(args[0], false)
			if err != nil {
				return none, err
			}
			return inst{in: rv64.Inst{Op: op, Rd: 0, Rs1: rs1}}, nil
		case 2:
			rd, err := reg(args[0], false)
			if err != nil {
				return none, err
			}
			off, base, rel, sym, err := a.memOperand(args[1])
			if err != nil {
				// allow "jalr rd, rs1"
				rs1, err2 := reg(args[1], false)
				if err2 != nil {
					return none, err
				}
				return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1}}, nil
			}
			return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: base, Imm: off}, reloc: rel, sym: sym}, nil
		}
		return none, a.errf("jalr expects 1 or 2 operands")
	case rv64.ClassSystem:
		if err := need(0); err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op}}, nil
	}

	switch op {
	case rv64.LUI, rv64.AUIPC:
		if err := need(2); err != nil {
			return none, err
		}
		rd, err := reg(args[0], false)
		if err != nil {
			return none, err
		}
		if sym, ok := cutCall(args[1], "%hi"); ok {
			return inst{in: rv64.Inst{Op: op, Rd: rd}, reloc: relHi, sym: sym}, nil
		}
		v, err := a.intExpr(args[1])
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rd: rd, Imm: v}}, nil
	}

	// I-format ALU ops and shifts.
	if !op.HasRs2() && op.HasRs1() && op.HasRd() {
		if op.FPRs1() || op.FPRd() {
			// unary FP ops: op rd, rs1
			if err := need(2); err != nil {
				return none, err
			}
			rd, err := reg(args[0], op.FPRd())
			if err != nil {
				return none, err
			}
			rs1, err := reg(args[1], op.FPRs1())
			if err != nil {
				return none, err
			}
			return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1}}, nil
		}
		if err := need(3); err != nil {
			return none, err
		}
		rd, err := reg(args[0], false)
		if err != nil {
			return none, err
		}
		rs1, err := reg(args[1], false)
		if err != nil {
			return none, err
		}
		if sym, ok := cutCall(args[2], "%lo"); ok {
			return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1}, reloc: relLo, sym: sym}, nil
		}
		v, err := a.intExpr(args[2])
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: v}}, nil
	}

	// R-format (2 or 3 sources).
	if op.HasRs3() {
		if err := need(4); err != nil {
			return none, err
		}
		rd, err := reg(args[0], op.FPRd())
		if err != nil {
			return none, err
		}
		rs1, err := reg(args[1], op.FPRs1())
		if err != nil {
			return none, err
		}
		rs2, err := reg(args[2], op.FPRs2())
		if err != nil {
			return none, err
		}
		rs3, err := reg(args[3], op.FPRs3())
		if err != nil {
			return none, err
		}
		return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: rs3}}, nil
	}
	if err := need(3); err != nil {
		return none, err
	}
	rd, err := reg(args[0], op.FPRd())
	if err != nil {
		return none, err
	}
	rs1, err := reg(args[1], op.FPRs1())
	if err != nil {
		return none, err
	}
	rs2, err := reg(args[2], op.FPRs2())
	if err != nil {
		return none, err
	}
	return inst{in: rv64.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}}, nil
}

// memOperand parses "off(reg)", "(reg)", "%lo(sym)(reg)".
func (a *assembler) memOperand(s string) (off int64, base uint8, rel reloc, sym string, err error) {
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, relNone, "", a.errf("bad memory operand %q", s)
	}
	regName := s[open+1 : len(s)-1]
	r, ok := rv64.IntReg(regName)
	if !ok {
		return 0, 0, relNone, "", a.errf("bad base register %q", regName)
	}
	offS := strings.TrimSpace(s[:open])
	if offS == "" {
		return 0, r, relNone, "", nil
	}
	if symName, ok := cutCall(offS, "%lo"); ok {
		return 0, r, relLo, symName, nil
	}
	v, err := a.intExpr(offS)
	if err != nil {
		return 0, 0, relNone, "", err
	}
	return v, r, relNone, "", nil
}

// cutCall matches "prefix(inner)" and returns inner.
func cutCall(s, prefix string) (string, bool) {
	if strings.HasPrefix(s, prefix+"(") && strings.HasSuffix(s, ")") {
		return strings.TrimSpace(s[len(prefix)+1 : len(s)-1]), true
	}
	return "", false
}

// pseudo expands pseudo-instructions. It reports handled=false for real
// mnemonics.
func (a *assembler) pseudo(mn string, args []string) ([]inst, bool, error) {
	intReg := func(s string) (uint8, error) {
		r, ok := rv64.IntReg(s)
		if !ok {
			return 0, a.errf("bad register %q", s)
		}
		return r, nil
	}
	fpReg := func(s string) (uint8, error) {
		r, ok := rv64.FPReg(s)
		if !ok {
			return 0, a.errf("bad FP register %q", s)
		}
		return r, nil
	}
	need := func(n int) error {
		if len(args) != n {
			return a.errf("%s expects %d operands, got %d", mn, n, len(args))
		}
		return nil
	}
	one := func(in rv64.Inst) ([]inst, bool, error) { return []inst{{in: in}}, true, nil }

	switch mn {
	case "nop":
		return one(rv64.Inst{Op: rv64.ADDI})
	case "li":
		if err := need(2); err != nil {
			return nil, true, err
		}
		rd, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		v, err := a.intExpr(args[1])
		if err != nil {
			return nil, true, err
		}
		return materializeLI(rd, v), true, nil
	case "la":
		if err := need(2); err != nil {
			return nil, true, err
		}
		rd, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		return []inst{
			{in: rv64.Inst{Op: rv64.LUI, Rd: rd}, reloc: relHi, sym: args[1]},
			{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Rs1: rd}, reloc: relLo, sym: args[1]},
		}, true, nil
	case "mv":
		if err := need(2); err != nil {
			return nil, true, err
		}
		rd, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		rs, err := intReg(args[1])
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.ADDI, Rd: rd, Rs1: rs})
	case "not":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.XORI, Rd: rd, Rs1: rs, Imm: -1})
	case "neg":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SUB, Rd: rd, Rs2: rs})
	case "negw":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SUBW, Rd: rd, Rs2: rs})
	case "sext.w":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.ADDIW, Rd: rd, Rs1: rs})
	case "seqz":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SLTIU, Rd: rd, Rs1: rs, Imm: 1})
	case "snez":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SLTU, Rd: rd, Rs2: rs})
	case "sltz":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SLT, Rd: rd, Rs1: rs})
	case "sgtz":
		rd, rs, err := a.twoInt(args)
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.SLT, Rd: rd, Rs2: rs})
	case "beqz", "bnez", "bltz", "bgez", "blez", "bgtz":
		if err := need(2); err != nil {
			return nil, true, err
		}
		rs, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		var in rv64.Inst
		switch mn {
		case "beqz":
			in = rv64.Inst{Op: rv64.BEQ, Rs1: rs}
		case "bnez":
			in = rv64.Inst{Op: rv64.BNE, Rs1: rs}
		case "bltz":
			in = rv64.Inst{Op: rv64.BLT, Rs1: rs}
		case "bgez":
			in = rv64.Inst{Op: rv64.BGE, Rs1: rs}
		case "blez":
			in = rv64.Inst{Op: rv64.BGE, Rs2: rs} // 0 >= rs
		case "bgtz":
			in = rv64.Inst{Op: rv64.BLT, Rs2: rs} // 0 < rs
		}
		return []inst{{in: in, reloc: relBranch, sym: args[1]}}, true, nil
	case "bgt", "ble", "bgtu", "bleu":
		if err := need(3); err != nil {
			return nil, true, err
		}
		rs1, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		rs2, err := intReg(args[1])
		if err != nil {
			return nil, true, err
		}
		op := map[string]rv64.Op{"bgt": rv64.BLT, "ble": rv64.BGE, "bgtu": rv64.BLTU, "bleu": rv64.BGEU}[mn]
		return []inst{{in: rv64.Inst{Op: op, Rs1: rs2, Rs2: rs1}, reloc: relBranch, sym: args[2]}}, true, nil
	case "j", "tail":
		if err := need(1); err != nil {
			return nil, true, err
		}
		return []inst{{in: rv64.Inst{Op: rv64.JAL, Rd: 0}, reloc: relBranch, sym: args[0]}}, true, nil
	case "call":
		if err := need(1); err != nil {
			return nil, true, err
		}
		return []inst{{in: rv64.Inst{Op: rv64.JAL, Rd: rv64.RegRA}, reloc: relBranch, sym: args[0]}}, true, nil
	case "jr":
		if err := need(1); err != nil {
			return nil, true, err
		}
		rs, err := intReg(args[0])
		if err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.JALR, Rd: 0, Rs1: rs})
	case "ret":
		if err := need(0); err != nil {
			return nil, true, err
		}
		return one(rv64.Inst{Op: rv64.JALR, Rd: 0, Rs1: rv64.RegRA})
	case "fmv.d", "fneg.d", "fabs.d":
		if err := need(2); err != nil {
			return nil, true, err
		}
		rd, err := fpReg(args[0])
		if err != nil {
			return nil, true, err
		}
		rs, err := fpReg(args[1])
		if err != nil {
			return nil, true, err
		}
		op := map[string]rv64.Op{"fmv.d": rv64.FSGNJD, "fneg.d": rv64.FSGNJND, "fabs.d": rv64.FSGNJXD}[mn]
		return one(rv64.Inst{Op: op, Rd: rd, Rs1: rs, Rs2: rs})
	}
	return nil, false, nil
}

func (a *assembler) twoInt(args []string) (uint8, uint8, error) {
	if len(args) != 2 {
		return 0, 0, a.errf("expected 2 operands, got %d", len(args))
	}
	rd, ok := rv64.IntReg(args[0])
	if !ok {
		return 0, 0, a.errf("bad register %q", args[0])
	}
	rs, ok := rv64.IntReg(args[1])
	if !ok {
		return 0, 0, a.errf("bad register %q", args[1])
	}
	return rd, rs, nil
}

// materializeLI emits the shortest lui/addiw/slli/addi sequence that loads
// the 64-bit constant v into rd, mirroring the standard toolchain expansion.
func materializeLI(rd uint8, v int64) []inst {
	if v >= -2048 && v <= 2047 {
		return []inst{{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Imm: v}}}
	}
	if v >= -(1<<31) && v < 1<<31 {
		hi := (v + 0x800) >> 12
		lo := v - hi<<12
		hi = int64(int32(hi<<12)) >> 12 // canonical signed 20-bit
		out := []inst{{in: rv64.Inst{Op: rv64.LUI, Rd: rd, Imm: hi}}}
		if lo != 0 {
			out = append(out, inst{in: rv64.Inst{Op: rv64.ADDIW, Rd: rd, Rs1: rd, Imm: lo}})
		}
		return out
	}
	lo := v << 52 >> 52 // sign-extended low 12 bits
	rest := (v - lo) >> 12
	out := materializeLI(rd, rest)
	out = append(out, inst{in: rv64.Inst{Op: rv64.SLLI, Rd: rd, Rs1: rd, Imm: 12}})
	if lo != 0 {
		out = append(out, inst{in: rv64.Inst{Op: rv64.ADDI, Rd: rd, Rs1: rd, Imm: lo}})
	}
	return out
}

// pass2 resolves symbols and encodes everything.
func (a *assembler) pass2(textBase, dataBase uint64) (*Program, error) {
	p := &Program{
		TextAddr: textBase,
		DataAddr: dataBase,
		Entry:    textBase,
		Symbols:  a.labels,
		Text:     make([]uint32, (a.textAddr-textBase)/4),
		Data:     make([]byte, a.dataAddr-dataBase),
	}
	resolve := func(it *item, sym string) (uint64, error) {
		if v, ok := a.labels[sym]; ok {
			return v, nil
		}
		if v, ok := a.equ[sym]; ok {
			return uint64(v), nil
		}
		return 0, &Error{Line: it.line, Msg: fmt.Sprintf("undefined symbol %q", sym)}
	}
	// Branch/jump targets may also be numeric PC-relative offsets (the
	// disassembler emits this form): "beq a0, a1, -12".
	resolveBranch := func(it *item, sym string, pc uint64) (int64, error) {
		if v, err := a.intExpr(sym); err == nil && !isIdent(sym) {
			return v, nil
		}
		target, err := resolve(it, sym)
		if err != nil {
			return 0, err
		}
		return int64(target) - int64(pc), nil
	}
	for _, it := range a.items {
		if it.sec == secData || len(it.insts) == 0 {
			copy(p.Data[it.addr-dataBase:], it.data)
			for _, ref := range it.dataRef {
				v, err := resolve(it, ref.symbol)
				if err != nil {
					return nil, err
				}
				putLE(p.Data[int(it.addr-dataBase)+ref.offset:][:ref.size], v)
			}
			continue
		}
		pc := it.addr
		for _, ins := range it.insts {
			in := ins.in
			switch ins.reloc {
			case relBranch:
				off, err := resolveBranch(it, ins.sym, pc)
				if err != nil {
					return nil, err
				}
				in.Imm = off
			case relHi:
				target, err := resolve(it, ins.sym)
				if err != nil {
					return nil, err
				}
				hi := (int64(target) + 0x800) >> 12
				in.Imm = int64(int32(hi<<12)) >> 12
			case relLo:
				target, err := resolve(it, ins.sym)
				if err != nil {
					return nil, err
				}
				hi := (int64(target) + 0x800) >> 12
				in.Imm = int64(target) - hi<<12
			}
			raw, err := rv64.Encode(in)
			if err != nil {
				return nil, &Error{Line: it.line, Msg: err.Error()}
			}
			p.Text[(pc-textBase)/4] = raw
			pc += 4
		}
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
