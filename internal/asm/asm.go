// Package asm implements a two-pass assembler for the RV64IMD subset in
// internal/rv64. It stands in for the RISC-V GCC toolchain the paper uses to
// build its MiBench/Embench binaries: the workload kernels in
// internal/workloads are written in this dialect and assembled at run time.
//
// Supported syntax:
//
//	label:                      # labels, also on the same line as code
//	.text / .data               # section switches
//	.align N                    # align to 2^N bytes, 0 <= N <= 12
//	.byte/.half/.word/.dword    # integer data (comma separated, labels ok in .dword/.word)
//	.space N                    # N zero bytes, 0 <= N <= 1 MiB
//	.ascii "s" / .asciz "s"     # string data
//	.equ NAME, value            # assembler constant
//	.global NAME                # accepted and ignored
//	add rd, rs1, rs2            # every rv64.Op by mnemonic
//	ld rd, off(rs1)             # loads/stores with displacement operands
//	beq rs1, rs2, label         # branch targets are labels
//	lui rd, %hi(sym) / %lo(sym) # absolute relocation helpers
//
// plus li, la and the one-instruction pseudo-instructions of the pseudos
// table (inst.go). A real instruction's operands are the slots of its
// rv64.Op.Operands, the layout rv64.Disassemble prints, and a pseudo's are
// its table row's. Numeric literals may be decimal, 0x-hex, 0b-binary or
// character ('a'). A .byte, .half or .word value must fit the width read
// as signed or as unsigned: where GNU as warns and truncates, this refuses.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rv64"
)

// The largest .align exponent (a 4 KiB page) and .space size (1 MiB) a
// source may ask for, so that no directive can demand an unbounded
// allocation.
const (
	maxAlign = 12
	maxSpace = 1 << 20
)

// Default section base addresses. They are deliberately below 2 GiB so that
// absolute addresses materialize with a simple lui+addi pair.
const (
	DefaultTextBase = 0x0001_0000
	DefaultDataBase = 0x0100_0000
)

// Program is the result of assembling a source file.
type Program struct {
	TextAddr uint64
	Text     []uint32 // encoded instructions, 4 bytes each
	DataAddr uint64
	Data     []byte
	Symbols  map[string]uint64
	Entry    uint64

	// Insts is Text predecoded, word for word: the image every sim.CPU
	// loaded from this program fetches from. It is shared between CPUs
	// (and goroutines) and must never be written.
	Insts []rv64.Inst
}

// TextBytes returns the instruction stream as little-endian bytes.
func (p *Program) TextBytes() []byte {
	out := make([]byte, 4*len(p.Text))
	for i, w := range p.Text {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// dataReloc is a .word or .dword symbol, patched into the data section in
// pass 2.
type dataReloc struct {
	offset int // into the data section
	size   int
	line   int
	symbol string
}

// inst is a single machine instruction, possibly awaiting label resolution.
type inst struct {
	in    rv64.Inst
	sym   string
	line  int32
	reloc reloc
}

type reloc uint8

const (
	relNone   reloc = iota
	relBranch       // PC-relative, B/J immediate
	relHi           // %hi(sym): (addr+0x800)>>12 into U imm
	relLo           // %lo(sym): low 12 bits into I/S imm
)

// The sections are built in place, in address order: .text as one inst
// per word and .data as its bytes. Pass 1 appends to them and pass 2
// resolves and encodes from them, so a program costs a few allocations
// however many lines it has.
type assembler struct {
	src      string
	equ      map[string]int64
	labels   map[string]uint64
	text     []inst
	data     []byte
	dataRefs []dataReloc
	sec      section
	textBase uint64
	dataBase uint64
	line     int
	operands []string // splitOperands' buffer
}

// Assemble assembles src with the default section bases.
func Assemble(src string) (*Program, error) {
	return AssembleAt(src, DefaultTextBase, DefaultDataBase)
}

// AssembleAt assembles src, placing .text at textBase and .data at dataBase.
// The entry point is the start of .text.
func AssembleAt(src string, textBase, dataBase uint64) (*Program, error) {
	a := &assembler{
		src:    src,
		equ:    make(map[string]int64),
		labels: make(map[string]uint64),
		// A line emits at most one word unless it is li, la or a .align
		// in .text, so the text section is sized from the source's line
		// count and grows only past a run of those.
		text:     make([]inst, 0, strings.Count(src, "\n")+1),
		data:     []byte{},
		operands: make([]string, 0, 4), // the most any instruction takes
		textBase: textBase,
		dataBase: dataBase,
	}
	if err := a.pass1(); err != nil {
		return nil, err
	}
	return a.pass2()
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			inStr = !inStr
		}
		if inStr {
			continue
		}
		if c == '#' || c == ';' {
			return s[:i]
		}
		if c == '/' && i+1 < len(s) && s[i+1] == '/' {
			return s[:i]
		}
	}
	return s
}

func (a *assembler) pass1() error {
	rest, more := a.src, true
	for a.line = 1; more; a.line++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		if err := a.statement(raw); err != nil {
			return err
		}
	}
	return nil
}

// statement assembles one source line.
func (a *assembler) statement(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	for {
		// Peel leading labels ("loop:" possibly followed by code).
		i := strings.IndexByte(s, ':')
		if i < 0 || strings.ContainsAny(s[:i], " \t\",(") {
			break
		}
		name := strings.TrimSpace(s[:i])
		if name == "" {
			return a.errf("empty label")
		}
		if _, dup := a.labels[name]; dup {
			return a.errf("duplicate label %q", name)
		}
		a.labels[name] = a.curAddr()
		s = strings.TrimSpace(s[i+1:])
	}
	switch {
	case s == "":
		return nil
	case strings.HasPrefix(s, "."):
		return a.directive(s)
	default:
		return a.instruction(s)
	}
}

func (a *assembler) curAddr() uint64 {
	if a.sec == secText {
		return a.textBase + 4*uint64(len(a.text))
	}
	return a.dataBase + uint64(len(a.data))
}

// zeros appends n zero bytes to the data section, growing it in one
// allocation (the append-of-make idiom takes two under -race).
func (a *assembler) zeros(n int) {
	l := len(a.data)
	if l+n > cap(a.data) {
		grown := make([]byte, l, 2*l+n)
		copy(grown, a.data)
		a.data = grown
	}
	a.data = a.data[:l+n]
	clear(a.data[l:])
}

// emit appends one instruction to the text section.
func (a *assembler) emit(in inst) {
	in.line = int32(a.line)
	a.text = append(a.text, in)
}

func (a *assembler) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		rest = name[i:] + " " + rest
		name = name[:i]
	}
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".global", ".globl", ".option", ".type", ".size", ".section", ".p2align":
		// accepted for GNU-as compatibility, no effect
	case ".align":
		n, err := a.intExpr(rest)
		if err != nil {
			return err
		}
		if n < 0 || n > maxAlign {
			return a.errf(".align %d outside 0..%d", n, maxAlign)
		}
		size := uint64(1) << uint(n)
		pad := (size - a.curAddr()%size) % size
		if a.sec == secText {
			for i := uint64(0); i < pad/4; i++ {
				a.emit(inst{in: rv64.Inst{Op: rv64.ADDI}}) // nop
			}
		} else {
			a.zeros(int(pad))
		}
	case ".byte", ".half", ".word", ".dword":
		if a.sec != secData {
			return a.errf("%s outside .data (instruction-stream literals are unsupported)", name)
		}
		size := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[name]
		for _, f := range a.splitOperands(rest) {
			if _, isEqu := a.equ[f]; size >= 4 && isIdent(f) && !isEqu {
				a.dataRefs = append(a.dataRefs, dataReloc{offset: len(a.data), size: size, line: a.line, symbol: f})
				a.zeros(size)
				continue
			}
			v, wide, err := a.expr(f)
			if err != nil {
				return a.errf("bad %s operand %q", name, f)
			}
			if !fitsWidth(v, size) || wide && size < 8 {
				return a.errf("%s value %s does not fit in %d bytes", name, f, size)
			}
			for i := 0; i < size; i++ {
				a.data = append(a.data, byte(v>>(8*i)))
			}
		}
	case ".space", ".zero":
		if a.sec != secData {
			return a.errf("%s outside .data", name)
		}
		n, err := a.intExpr(rest)
		if err != nil {
			return err
		}
		if n < 0 || n > maxSpace {
			return a.errf("%s %d outside 0..%d", name, n, maxSpace)
		}
		a.zeros(int(n))
	case ".ascii", ".asciz":
		if a.sec != secData {
			return a.errf("%s outside .data", name)
		}
		str, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("bad string %s", rest)
		}
		a.data = append(a.data, str...)
		if name == ".asciz" {
			a.data = append(a.data, 0)
		}
	case ".equ", ".set":
		nameV, valS, ok := strings.Cut(rest, ",")
		if !ok {
			return a.errf(".equ needs NAME, value")
		}
		v, err := a.intExpr(strings.TrimSpace(valS))
		if err != nil {
			return err
		}
		a.equ[strings.TrimSpace(nameV)] = v
	default:
		return a.errf("unknown directive %s", name)
	}
	return nil
}

// fitsWidth reports whether v is a size-byte value read as signed or as
// unsigned, as GNU as requires of .byte, .half and .word: -1 and 255 fit a
// byte, 256 and -129 do not.
func fitsWidth(v int64, size int) bool {
	if size >= 8 {
		return true
	}
	bits := 8 * uint(size)
	return v >= -1<<(bits-1) && v < 1<<bits
}

func putLE(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitOperands splits on commas at paren depth zero, into a slice the
// assembler reuses: the result is valid until the next call.
func (a *assembler) splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	out := a.operands[:0]
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	a.operands = out
	return out
}

// intExpr evaluates an integer literal, .equ constant, or simple a+b / a-b /
// a*b expression thereof.
func (a *assembler) intExpr(s string) (int64, error) {
	v, _, err := a.expr(s)
	return v, err
}

// expr is intExpr that also reports whether s holds a literal above
// math.MaxInt64, which it folds into int64 (0xFFFFFFFFFFFFFFFF reads -1):
// a data directive narrower than 8 bytes refuses such a literal, which
// fits its width neither as signed nor as unsigned as written.
func (a *assembler) expr(s string) (v int64, wide bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, a.errf("empty expression")
	}
	// binary + - * at top level (left-assoc, * binds tighter not supported:
	// evaluate strictly left to right which is enough for the sources here)
	for i := len(s) - 1; i > 0; i-- {
		c := s[i]
		if c == '+' || c == '-' {
			prev := s[i-1]
			if prev == '+' || prev == '-' || prev == '*' || prev == 'x' || prev == 'X' || prev == 'b' || prev == 'e' || prev == 'E' {
				continue // sign or literal prefix
			}
			l, lw, err := a.expr(s[:i])
			if err != nil {
				return 0, false, err
			}
			r, rw, err := a.expr(s[i+1:])
			if err != nil {
				return 0, false, err
			}
			if c == '+' {
				return l + r, lw || rw, nil
			}
			return l - r, lw || rw, nil
		}
	}
	if i := strings.LastIndexByte(s, '*'); i > 0 {
		l, lw, err := a.expr(s[:i])
		if err != nil {
			return 0, false, err
		}
		r, rw, err := a.expr(s[i+1:])
		if err != nil {
			return 0, false, err
		}
		return l * r, lw || rw, nil
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, false, a.errf("bad char literal %s", s)
		}
		return int64(body[0]), false, nil
	}
	if v, ok := a.equ[s]; ok {
		return v, false, nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var u uint64
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		u, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b"):
		u, err = strconv.ParseUint(s[2:], 2, 64)
	default:
		u, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, false, a.errf("bad integer %q", s)
	}
	if neg {
		if u > 1<<63 {
			return 0, false, a.errf("integer -%s out of range", s)
		}
		return -int64(u), false, nil
	}
	return int64(u), u > math.MaxInt64, nil
}
