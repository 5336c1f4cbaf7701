// Package rv64 defines the RV64IMD instruction set used throughout the
// repository: opcode enumeration, binary decode/encode, register naming and
// the coarse instruction classes consumed by the BOOM timing model.
//
// One table, ops, describes every instruction. Encode packs words from it,
// and Decode is its inverse read from the same table: each Op's fixed bits
// and their values are derived from its format and from Encode itself, so an
// encoding is written down once. Each Op's operand layout (Op.Operands) is
// derived from the same table, and both Disassemble and internal/asm read
// it, so an instruction's assembler syntax is written down once too.
//
// The subset implemented is the one exercised by the MiBench/Embench
// workload kernels in internal/workloads: the full RV64I base, the M
// extension, the D extension (double-precision floating point, including
// fused multiply-add), and the FMV/FCVT bridges between the integer and
// floating-point files. Compressed instructions and CSR accesses other than
// ECALL/EBREAK are intentionally out of scope.
package rv64

import "fmt"

// Op identifies one machine instruction.
type Op uint16

// All supported operations. The order groups the base ISA, the M extension
// and the D extension; Class relies only on the explicit table below, not on
// ordering.
const (
	ILLEGAL Op = iota

	// RV64I
	LUI
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LD
	LBU
	LHU
	LWU
	SB
	SH
	SW
	SD
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	ADDIW
	SLLIW
	SRLIW
	SRAIW
	ADDW
	SUBW
	SLLW
	SRLW
	SRAW
	FENCE
	ECALL
	EBREAK

	// RV64M
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	MULW
	DIVW
	DIVUW
	REMW
	REMUW

	// RV64D (+ integer bridges)
	FLD
	FSD
	FADDD
	FSUBD
	FMULD
	FDIVD
	FSQRTD
	FSGNJD
	FSGNJND
	FSGNJXD
	FMIND
	FMAXD
	FCVTWD
	FCVTWUD
	FCVTDW
	FCVTDWU
	FCVTLD
	FCVTLUD
	FCVTDL
	FCVTDLU
	FMVXD
	FMVDX
	FEQD
	FLTD
	FLED
	FCLASSD
	FMADDD
	FMSUBD
	FNMADDD
	FNMSUBD

	numOps
)

// Class is the coarse execution class the timing model schedules by.
type Class uint8

// Instruction classes. Loads and stores carry an FP flag on the Inst rather
// than a separate class so that the LSU treats them uniformly.
const (
	ClassALU    Class = iota // single-cycle integer ops
	ClassMul                 // pipelined integer multiply
	ClassDiv                 // unpipelined integer divide
	ClassLoad                // memory read (int or FP destination)
	ClassStore               // memory write
	ClassBranch              // conditional branch
	ClassJAL                 // direct jump (and link)
	ClassJALR                // indirect jump (and link)
	ClassFPALU               // FP add/sub/compare/convert/move/sign ops
	ClassFPMul               // FP multiply and fused multiply-add
	ClassFPDiv               // FP divide / sqrt (unpipelined)
	ClassSystem              // ecall/ebreak/fence
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJAL:
		return "jal"
	case ClassJALR:
		return "jalr"
	case ClassFPALU:
		return "fpalu"
	case ClassFPMul:
		return "fpmul"
	case ClassFPDiv:
		return "fpdiv"
	case ClassSystem:
		return "system"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// format describes how an Op packs into 32 bits.
type format uint8

const (
	fmtR format = iota
	fmtR4
	fmtI
	fmtS
	fmtB
	fmtU
	fmtJ
	fmtShift  // I-format with 6-bit shamt
	fmtShiftW // I-format with 5-bit shamt (word shifts)
	fmtNone   // ecall/ebreak/fence
)

// opInfo is the single source of truth for encoding, decoding, naming and
// classification of each Op. Encode packs a word from it; Decode reads it
// backwards: an Op's fixed bits are the ones its format leaves to no operand
// (fixedBits), and their values are what Encode writes for the Op with zero
// operands. anyF3 and selRs2 say where the R format departs from that.
type opInfo struct {
	name   string
	fmt    format
	opcode uint32 // bits [6:0]
	f3     uint32 // bits [14:12]
	f7     uint32 // bits [31:25] (or rs2 field for unary FP ops)
	class  Class
	// flags
	fpRd, fpRs1, fpRs2, fpRs3 bool
	unaryFP                   bool // f7 ops whose rs2 field is fixed (fsqrt, fcvt, fmv, fclass)
	rs2Field                  uint32
	anyF3                     bool  // Decode ignores funct3 (the rounding mode of arithmetic and fcvt ops)
	selRs2                    bool  // Decode selects among Ops by rs2Field (the fcvt family)
	memBytes                  uint8 // access size for loads/stores
	fpMem                     bool  // FP load/store
}

var ops = [numOps]opInfo{
	LUI:    {name: "lui", fmt: fmtU, opcode: 0x37, class: ClassALU},
	AUIPC:  {name: "auipc", fmt: fmtU, opcode: 0x17, class: ClassALU},
	JAL:    {name: "jal", fmt: fmtJ, opcode: 0x6F, class: ClassJAL},
	JALR:   {name: "jalr", fmt: fmtI, opcode: 0x67, f3: 0, class: ClassJALR},
	BEQ:    {name: "beq", fmt: fmtB, opcode: 0x63, f3: 0, class: ClassBranch},
	BNE:    {name: "bne", fmt: fmtB, opcode: 0x63, f3: 1, class: ClassBranch},
	BLT:    {name: "blt", fmt: fmtB, opcode: 0x63, f3: 4, class: ClassBranch},
	BGE:    {name: "bge", fmt: fmtB, opcode: 0x63, f3: 5, class: ClassBranch},
	BLTU:   {name: "bltu", fmt: fmtB, opcode: 0x63, f3: 6, class: ClassBranch},
	BGEU:   {name: "bgeu", fmt: fmtB, opcode: 0x63, f3: 7, class: ClassBranch},
	LB:     {name: "lb", fmt: fmtI, opcode: 0x03, f3: 0, class: ClassLoad, memBytes: 1},
	LH:     {name: "lh", fmt: fmtI, opcode: 0x03, f3: 1, class: ClassLoad, memBytes: 2},
	LW:     {name: "lw", fmt: fmtI, opcode: 0x03, f3: 2, class: ClassLoad, memBytes: 4},
	LD:     {name: "ld", fmt: fmtI, opcode: 0x03, f3: 3, class: ClassLoad, memBytes: 8},
	LBU:    {name: "lbu", fmt: fmtI, opcode: 0x03, f3: 4, class: ClassLoad, memBytes: 1},
	LHU:    {name: "lhu", fmt: fmtI, opcode: 0x03, f3: 5, class: ClassLoad, memBytes: 2},
	LWU:    {name: "lwu", fmt: fmtI, opcode: 0x03, f3: 6, class: ClassLoad, memBytes: 4},
	SB:     {name: "sb", fmt: fmtS, opcode: 0x23, f3: 0, class: ClassStore, memBytes: 1},
	SH:     {name: "sh", fmt: fmtS, opcode: 0x23, f3: 1, class: ClassStore, memBytes: 2},
	SW:     {name: "sw", fmt: fmtS, opcode: 0x23, f3: 2, class: ClassStore, memBytes: 4},
	SD:     {name: "sd", fmt: fmtS, opcode: 0x23, f3: 3, class: ClassStore, memBytes: 8},
	ADDI:   {name: "addi", fmt: fmtI, opcode: 0x13, f3: 0, class: ClassALU},
	SLTI:   {name: "slti", fmt: fmtI, opcode: 0x13, f3: 2, class: ClassALU},
	SLTIU:  {name: "sltiu", fmt: fmtI, opcode: 0x13, f3: 3, class: ClassALU},
	XORI:   {name: "xori", fmt: fmtI, opcode: 0x13, f3: 4, class: ClassALU},
	ORI:    {name: "ori", fmt: fmtI, opcode: 0x13, f3: 6, class: ClassALU},
	ANDI:   {name: "andi", fmt: fmtI, opcode: 0x13, f3: 7, class: ClassALU},
	SLLI:   {name: "slli", fmt: fmtShift, opcode: 0x13, f3: 1, f7: 0x00, class: ClassALU},
	SRLI:   {name: "srli", fmt: fmtShift, opcode: 0x13, f3: 5, f7: 0x00, class: ClassALU},
	SRAI:   {name: "srai", fmt: fmtShift, opcode: 0x13, f3: 5, f7: 0x20, class: ClassALU},
	ADD:    {name: "add", fmt: fmtR, opcode: 0x33, f3: 0, f7: 0x00, class: ClassALU},
	SUB:    {name: "sub", fmt: fmtR, opcode: 0x33, f3: 0, f7: 0x20, class: ClassALU},
	SLL:    {name: "sll", fmt: fmtR, opcode: 0x33, f3: 1, f7: 0x00, class: ClassALU},
	SLT:    {name: "slt", fmt: fmtR, opcode: 0x33, f3: 2, f7: 0x00, class: ClassALU},
	SLTU:   {name: "sltu", fmt: fmtR, opcode: 0x33, f3: 3, f7: 0x00, class: ClassALU},
	XOR:    {name: "xor", fmt: fmtR, opcode: 0x33, f3: 4, f7: 0x00, class: ClassALU},
	SRL:    {name: "srl", fmt: fmtR, opcode: 0x33, f3: 5, f7: 0x00, class: ClassALU},
	SRA:    {name: "sra", fmt: fmtR, opcode: 0x33, f3: 5, f7: 0x20, class: ClassALU},
	OR:     {name: "or", fmt: fmtR, opcode: 0x33, f3: 6, f7: 0x00, class: ClassALU},
	AND:    {name: "and", fmt: fmtR, opcode: 0x33, f3: 7, f7: 0x00, class: ClassALU},
	ADDIW:  {name: "addiw", fmt: fmtI, opcode: 0x1B, f3: 0, class: ClassALU},
	SLLIW:  {name: "slliw", fmt: fmtShiftW, opcode: 0x1B, f3: 1, f7: 0x00, class: ClassALU},
	SRLIW:  {name: "srliw", fmt: fmtShiftW, opcode: 0x1B, f3: 5, f7: 0x00, class: ClassALU},
	SRAIW:  {name: "sraiw", fmt: fmtShiftW, opcode: 0x1B, f3: 5, f7: 0x20, class: ClassALU},
	ADDW:   {name: "addw", fmt: fmtR, opcode: 0x3B, f3: 0, f7: 0x00, class: ClassALU},
	SUBW:   {name: "subw", fmt: fmtR, opcode: 0x3B, f3: 0, f7: 0x20, class: ClassALU},
	SLLW:   {name: "sllw", fmt: fmtR, opcode: 0x3B, f3: 1, f7: 0x00, class: ClassALU},
	SRLW:   {name: "srlw", fmt: fmtR, opcode: 0x3B, f3: 5, f7: 0x00, class: ClassALU},
	SRAW:   {name: "sraw", fmt: fmtR, opcode: 0x3B, f3: 5, f7: 0x20, class: ClassALU},
	FENCE:  {name: "fence", fmt: fmtNone, opcode: 0x0F, f3: 0, class: ClassSystem},
	ECALL:  {name: "ecall", fmt: fmtNone, opcode: 0x73, f3: 0, f7: 0, class: ClassSystem},
	EBREAK: {name: "ebreak", fmt: fmtNone, opcode: 0x73, f3: 0, f7: 0, rs2Field: 1, class: ClassSystem},

	MUL:    {name: "mul", fmt: fmtR, opcode: 0x33, f3: 0, f7: 0x01, class: ClassMul},
	MULH:   {name: "mulh", fmt: fmtR, opcode: 0x33, f3: 1, f7: 0x01, class: ClassMul},
	MULHSU: {name: "mulhsu", fmt: fmtR, opcode: 0x33, f3: 2, f7: 0x01, class: ClassMul},
	MULHU:  {name: "mulhu", fmt: fmtR, opcode: 0x33, f3: 3, f7: 0x01, class: ClassMul},
	DIV:    {name: "div", fmt: fmtR, opcode: 0x33, f3: 4, f7: 0x01, class: ClassDiv},
	DIVU:   {name: "divu", fmt: fmtR, opcode: 0x33, f3: 5, f7: 0x01, class: ClassDiv},
	REM:    {name: "rem", fmt: fmtR, opcode: 0x33, f3: 6, f7: 0x01, class: ClassDiv},
	REMU:   {name: "remu", fmt: fmtR, opcode: 0x33, f3: 7, f7: 0x01, class: ClassDiv},
	MULW:   {name: "mulw", fmt: fmtR, opcode: 0x3B, f3: 0, f7: 0x01, class: ClassMul},
	DIVW:   {name: "divw", fmt: fmtR, opcode: 0x3B, f3: 4, f7: 0x01, class: ClassDiv},
	DIVUW:  {name: "divuw", fmt: fmtR, opcode: 0x3B, f3: 5, f7: 0x01, class: ClassDiv},
	REMW:   {name: "remw", fmt: fmtR, opcode: 0x3B, f3: 6, f7: 0x01, class: ClassDiv},
	REMUW:  {name: "remuw", fmt: fmtR, opcode: 0x3B, f3: 7, f7: 0x01, class: ClassDiv},

	FLD:     {name: "fld", fmt: fmtI, opcode: 0x07, f3: 3, class: ClassLoad, fpRd: true, memBytes: 8, fpMem: true},
	FSD:     {name: "fsd", fmt: fmtS, opcode: 0x27, f3: 3, class: ClassStore, fpRs2: true, memBytes: 8, fpMem: true},
	FADDD:   {name: "fadd.d", fmt: fmtR, opcode: 0x53, f3: 7, f7: 0x01, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true, anyF3: true},
	FSUBD:   {name: "fsub.d", fmt: fmtR, opcode: 0x53, f3: 7, f7: 0x05, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true, anyF3: true},
	FMULD:   {name: "fmul.d", fmt: fmtR, opcode: 0x53, f3: 7, f7: 0x09, class: ClassFPMul, fpRd: true, fpRs1: true, fpRs2: true, anyF3: true},
	FDIVD:   {name: "fdiv.d", fmt: fmtR, opcode: 0x53, f3: 7, f7: 0x0D, class: ClassFPDiv, fpRd: true, fpRs1: true, fpRs2: true, anyF3: true},
	FSQRTD:  {name: "fsqrt.d", fmt: fmtR, opcode: 0x53, f3: 7, f7: 0x2D, class: ClassFPDiv, fpRd: true, fpRs1: true, unaryFP: true, anyF3: true},
	FSGNJD:  {name: "fsgnj.d", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x11, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true},
	FSGNJND: {name: "fsgnjn.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x11, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true},
	FSGNJXD: {name: "fsgnjx.d", fmt: fmtR, opcode: 0x53, f3: 2, f7: 0x11, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true},
	FMIND:   {name: "fmin.d", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x15, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true},
	FMAXD:   {name: "fmax.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x15, class: ClassFPALU, fpRd: true, fpRs1: true, fpRs2: true},
	FCVTWD:  {name: "fcvt.w.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x61, class: ClassFPALU, fpRs1: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 0},
	FCVTWUD: {name: "fcvt.wu.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x61, class: ClassFPALU, fpRs1: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 1},
	FCVTDW:  {name: "fcvt.d.w", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x69, class: ClassFPALU, fpRd: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 0},
	FCVTDWU: {name: "fcvt.d.wu", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x69, class: ClassFPALU, fpRd: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 1},
	FCVTLD:  {name: "fcvt.l.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x61, class: ClassFPALU, fpRs1: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 2},
	FCVTLUD: {name: "fcvt.lu.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x61, class: ClassFPALU, fpRs1: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 3},
	FCVTDL:  {name: "fcvt.d.l", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x69, class: ClassFPALU, fpRd: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 2},
	FCVTDLU: {name: "fcvt.d.lu", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x69, class: ClassFPALU, fpRd: true, unaryFP: true, anyF3: true, selRs2: true, rs2Field: 3},
	FMVXD:   {name: "fmv.x.d", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x71, class: ClassFPALU, fpRs1: true, unaryFP: true},
	FMVDX:   {name: "fmv.d.x", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x79, class: ClassFPALU, fpRd: true, unaryFP: true, anyF3: true},
	FEQD:    {name: "feq.d", fmt: fmtR, opcode: 0x53, f3: 2, f7: 0x51, class: ClassFPALU, fpRs1: true, fpRs2: true},
	FLTD:    {name: "flt.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x51, class: ClassFPALU, fpRs1: true, fpRs2: true},
	FLED:    {name: "fle.d", fmt: fmtR, opcode: 0x53, f3: 0, f7: 0x51, class: ClassFPALU, fpRs1: true, fpRs2: true},
	FCLASSD: {name: "fclass.d", fmt: fmtR, opcode: 0x53, f3: 1, f7: 0x71, class: ClassFPALU, fpRs1: true, unaryFP: true},
	FMADDD:  {name: "fmadd.d", fmt: fmtR4, opcode: 0x43, f3: 7, f7: 0x01, class: ClassFPMul, fpRd: true, fpRs1: true, fpRs2: true, fpRs3: true},
	FMSUBD:  {name: "fmsub.d", fmt: fmtR4, opcode: 0x47, f3: 7, f7: 0x01, class: ClassFPMul, fpRd: true, fpRs1: true, fpRs2: true, fpRs3: true},
	FNMADDD: {name: "fnmadd.d", fmt: fmtR4, opcode: 0x4F, f3: 7, f7: 0x01, class: ClassFPMul, fpRd: true, fpRs1: true, fpRs2: true, fpRs3: true},
	FNMSUBD: {name: "fnmsub.d", fmt: fmtR4, opcode: 0x4B, f3: 7, f7: 0x01, class: ClassFPMul, fpRd: true, fpRs1: true, fpRs2: true, fpRs3: true},
}

// Name returns the assembler mnemonic of op.
func (op Op) Name() string {
	if op < numOps && ops[op].name != "" {
		return ops[op].name
	}
	return fmt.Sprintf("op(%d)", uint16(op))
}

func (op Op) String() string { return op.Name() }

// Class returns the execution class of op.
func (op Op) Class() Class { return ops[op].class }

// FPRd reports whether the destination register is in the FP file.
func (op Op) FPRd() bool { return ops[op].fpRd }

// FPRs1 reports whether rs1 is read from the FP file.
func (op Op) FPRs1() bool { return ops[op].fpRs1 }

// FPRs2 reports whether rs2 is read from the FP file.
func (op Op) FPRs2() bool { return ops[op].fpRs2 }

// FPRs3 reports whether rs3 is read from the FP file (fused multiply-add).
func (op Op) FPRs3() bool { return ops[op].fpRs3 }

// MemBytes returns the access width in bytes for loads and stores, 0 for
// other instructions.
func (op Op) MemBytes() int { return int(ops[op].memBytes) }

// IsFPMem reports whether op is an FP load/store.
func (op Op) IsFPMem() bool { return ops[op].fpMem }

// Slot is one operand position in an instruction's assembler syntax.
type Slot uint8

// Operand slots. A register is read from the file its slot's FPRd, FPRs1,
// FPRs2 or FPRs3 flag names; a memory base is always an integer register.
const (
	SlotRd     Slot = iota // destination register
	SlotRs1                // first source register
	SlotRs2                // second source register (a store's data)
	SlotRs3                // third source register (fused multiply-add)
	SlotHi                 // immediate, or %hi(sym) (U format)
	SlotLo                 // immediate, or %lo(sym) (I format and shifts)
	SlotMem                // off(rs1): immediate or %lo(sym) offset from a base
	SlotTarget             // branch or jump target, a PC-relative offset
)

// Operands returns op's operand slots in assembler order. The slice is
// shared and must not be written.
func (op Op) Operands() []Slot { return layouts[op] }

// HasRd reports whether op writes a destination register.
func (op Op) HasRd() bool { return uses[op]&(1<<SlotRd) != 0 }

// HasRs1 reports whether op reads rs1, as a register or a memory base.
func (op Op) HasRs1() bool { return uses[op]&(1<<SlotRs1) != 0 }

// HasRs2 reports whether op reads rs2.
func (op Op) HasRs2() bool { return uses[op]&(1<<SlotRs2) != 0 }

// HasRs3 reports whether op reads a third source register.
func (op Op) HasRs3() bool { return uses[op]&(1<<SlotRs3) != 0 }

// layouts holds every Op's operand slots, derived once from its format and
// class, and uses the registers they name, one bit per Slot.
var layouts, uses = func() (l [numOps][]Slot, u [numOps]uint8) {
	for op := range l {
		l[op] = slotsOf(&ops[op])
		for _, s := range l[op] {
			if s == SlotMem {
				s = SlotRs1
			}
			u[op] |= 1 << s
		}
	}
	return l, u
}()

func slotsOf(info *opInfo) []Slot {
	switch info.fmt {
	case fmtR:
		if info.unaryFP {
			return []Slot{SlotRd, SlotRs1}
		}
		return []Slot{SlotRd, SlotRs1, SlotRs2}
	case fmtR4:
		return []Slot{SlotRd, SlotRs1, SlotRs2, SlotRs3}
	case fmtI, fmtShift, fmtShiftW:
		if info.class == ClassLoad || info.class == ClassJALR {
			return []Slot{SlotRd, SlotMem}
		}
		return []Slot{SlotRd, SlotRs1, SlotLo}
	case fmtS:
		return []Slot{SlotRs2, SlotMem}
	case fmtB:
		return []Slot{SlotRs1, SlotRs2, SlotTarget}
	case fmtU:
		return []Slot{SlotRd, SlotHi}
	case fmtJ:
		return []Slot{SlotRd, SlotTarget}
	}
	return nil // fmtNone
}

// redirects caches IsBranchOrJump per Op in a table small enough to stay
// in cache: the BBV profiler asks once per retired instruction.
var redirects = func() (t [numOps]bool) {
	for op := range t {
		switch ops[op].class {
		case ClassBranch, ClassJAL, ClassJALR:
			t[op] = true
		}
	}
	return t
}()

// IsBranchOrJump reports whether op can redirect the PC.
func (op Op) IsBranchOrJump() bool { return redirects[op] }

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Rs3 uint8
	Imm int64
	Raw uint32
}

func (in Inst) String() string {
	return fmt.Sprintf("%s rd=%d rs1=%d rs2=%d imm=%d", in.Op.Name(), in.Rd, in.Rs1, in.Rs2, in.Imm)
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(1); op < numOps; op++ {
		if ops[op].name != "" {
			m[ops[op].name] = op
		}
	}
	return m
}()

// OpByName resolves an assembler mnemonic ("addi", "fmadd.d") to its Op.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
