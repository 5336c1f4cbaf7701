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
// character ('a').
package asm

import (
	"fmt"
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

// item is one assembled unit placed during pass 1.
type item struct {
	line    int
	sec     section
	addr    uint64
	insts   []inst // for text items
	data    []byte // for data items
	dataRef []dataReloc
}

type dataReloc struct {
	offset int // into data
	size   int
	symbol string
}

// inst is a single machine instruction, possibly awaiting label resolution.
type inst struct {
	in    rv64.Inst
	reloc reloc
	sym   string
}

type reloc int

const (
	relNone   reloc = iota
	relBranch       // PC-relative, B/J immediate
	relHi           // %hi(sym): (addr+0x800)>>12 into U imm
	relLo           // %lo(sym): low 12 bits into I/S imm
)

type assembler struct {
	src      string
	equ      map[string]int64
	labels   map[string]uint64
	items    []*item
	sec      section
	textAddr uint64
	dataAddr uint64
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
		src:      src,
		equ:      make(map[string]int64),
		labels:   make(map[string]uint64),
		textAddr: textBase,
		dataAddr: dataBase,
	}
	if err := a.pass1(); err != nil {
		return nil, err
	}
	return a.pass2(textBase, dataBase)
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
	lines := strings.Split(a.src, "\n")
	for n, raw := range lines {
		a.line = n + 1
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
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, ".") {
			if err := a.directive(s); err != nil {
				return err
			}
			continue
		}
		if err := a.instruction(s); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) curAddr() uint64 {
	if a.sec == secText {
		return a.textAddr
	}
	return a.dataAddr
}

func (a *assembler) advance(n uint64) {
	if a.sec == secText {
		a.textAddr += n
	} else {
		a.dataAddr += n
	}
}

func (a *assembler) emit(it *item) {
	it.sec = a.sec
	it.addr = a.curAddr()
	it.line = a.line
	a.items = append(a.items, it)
	if len(it.insts) > 0 {
		a.advance(uint64(4 * len(it.insts)))
	} else {
		a.advance(uint64(len(it.data)))
	}
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
		if pad > 0 {
			if a.sec == secText {
				// pad with nops
				it := &item{}
				for i := uint64(0); i < pad/4; i++ {
					it.insts = append(it.insts, inst{in: rv64.Inst{Op: rv64.ADDI}})
				}
				a.emit(it)
			} else {
				a.emit(&item{data: make([]byte, pad)})
			}
		}
	case ".byte", ".half", ".word", ".dword":
		if a.sec != secData {
			return a.errf("%s outside .data (instruction-stream literals are unsupported)", name)
		}
		size := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[name]
		it := &item{}
		for _, f := range a.splitOperands(rest) {
			if v, err := a.intExpr(f); err == nil {
				b := make([]byte, size)
				putLE(b, uint64(v))
				it.data = append(it.data, b...)
				continue
			}
			if size >= 4 && isIdent(f) {
				it.dataRef = append(it.dataRef, dataReloc{offset: len(it.data), size: size, symbol: f})
				it.data = append(it.data, make([]byte, size)...)
				continue
			}
			return a.errf("bad %s operand %q", name, f)
		}
		a.emit(it)
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
		a.emit(&item{data: make([]byte, n)})
	case ".ascii", ".asciz":
		if a.sec != secData {
			return a.errf("%s outside .data", name)
		}
		str, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("bad string %s", rest)
		}
		b := []byte(str)
		if name == ".asciz" {
			b = append(b, 0)
		}
		a.emit(&item{data: b})
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
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf("empty expression")
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
			l, err := a.intExpr(s[:i])
			if err != nil {
				return 0, err
			}
			r, err := a.intExpr(s[i+1:])
			if err != nil {
				return 0, err
			}
			if c == '+' {
				return l + r, nil
			}
			return l - r, nil
		}
	}
	if i := strings.LastIndexByte(s, '*'); i > 0 {
		l, err := a.intExpr(s[:i])
		if err != nil {
			return 0, err
		}
		r, err := a.intExpr(s[i+1:])
		if err != nil {
			return 0, err
		}
		return l * r, nil
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, a.errf("bad char literal %s", s)
		}
		return int64(body[0]), nil
	}
	if v, ok := a.equ[s]; ok {
		return v, nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b"):
		v, err = strconv.ParseUint(s[2:], 2, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, a.errf("bad integer %q", s)
	}
	if neg {
		if v > 1<<63 {
			return 0, a.errf("integer -%s out of range", s)
		}
		return -int64(v), nil
	}
	return int64(v), nil
}
