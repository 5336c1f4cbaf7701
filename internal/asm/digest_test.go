package asm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv64"
	"repro/internal/workloads"
)

// assembleAcceptanceDigest pins what the assembler makes of a seeded corpus
// of instruction lines — every real and pseudo mnemonic at 0 to 5 operands
// drawn from operandPool — and of every workload's source at every scale.
// For each line it hashes the line, whether it was accepted, the words, and
// an error's line number; error text is left out. For each workload it
// hashes Text, Data, Entry and the sorted symbol table. A change to the
// accepted language, laxness included, or to any assembled word moves it.
const assembleAcceptanceDigest = "8f2ef1911b7862feb6f0bc5a777e5226e454ac3c6ce1d5207f196ae29addd35a"

// operandPool groups the operand tokens the corpus draws from. Each group is
// drawn as often as it is listed in operandGroups; one line in four draws
// all its operands from one group, so all-FP lines occur too.
var operandPool = map[string][]string{
	"int":     {"zero", "ra", "sp", "fp", "a0", "a7", "s11", "t6", "x0", "x5", "x31"},
	"fp":      {"ft0", "fa0", "fa7", "fs11", "ft11", "f0", "f31"},
	"wrong":   {"x32", "f32", "A0", "r1", "fx0"},
	"imm":     {"-2049", "-2048", "2047", "2048", "4095", "0", "-1", "1"},
	"shift":   {"31", "32", "63", "64"},
	"reloc":   {"%hi(sym)", "%lo(sym)", "%hi(lab)", "%lo(fwd)", "%hi(nowhere)"},
	"mem":     {"8(sp)", "-2048(a0)", "2047(t6)", "2048(a1)", "(a1)", "%lo(sym)(a2)", "0(fa0)", "4(x32)", "%hi(sym)(a0)", "(t0"},
	"label":   {"lab", "fwd", "sym", "nowhere"},
	"target":  {"8", "-4", "4094", "-4096", "4096", "3", "1048574"},
	"garbage": {"?", "a0a", "%hi(", "1(2)", "0x", "'a'", "a0 a1", "-", "()"},
}

var operandGroups = []string{"int", "int", "int", "int", "int", "int", "fp", "fp", "fp", "fp",
	"wrong", "imm", "imm", "shift", "reloc", "mem", "mem", "mem", "label", "target", "garbage"}

// pseudoMnemonics are the pseudo-instructions the assembler accepts; the
// corpus also tries an unknown mnemonic and an upper-case real one.
var pseudoMnemonics = []string{"li", "la", "nop", "mv", "not", "neg", "negw",
	"sext.w", "seqz", "snez", "sltz", "sgtz", "beqz", "bnez", "bltz", "bgez",
	"blez", "bgtz", "bgt", "ble", "bgtu", "bleu", "j", "tail", "call", "jr",
	"ret", "fmv.d", "fneg.d", "fabs.d", "ADDI", "addx"}

// linesPerArity is how many seeded lines the corpus holds per mnemonic at
// each operand count.
var linesPerArity = [6]int{1, 60, 600, 600, 400, 60}

func acceptanceCorpus() []string {
	var mnemonics []string
	for op := rv64.Op(1); !strings.HasPrefix(op.Name(), "op("); op++ {
		mnemonics = append(mnemonics, op.Name())
	}
	mnemonics = append(mnemonics, pseudoMnemonics...)
	rng := rand.New(rand.NewSource(47))
	var lines []string
	var args []string
	for _, mn := range mnemonics {
		for arity, n := range linesPerArity {
			for i := 0; i < n; i++ {
				args = args[:0]
				same := rng.Intn(4) == 0
				var g []string
				for j := 0; j < arity; j++ {
					if j == 0 || !same {
						g = operandPool[operandGroups[rng.Intn(len(operandGroups))]]
					}
					args = append(args, g[rng.Intn(len(g))])
				}
				lines = append(lines, strings.TrimSpace(mn+" "+strings.Join(args, ", ")))
			}
		}
	}
	return lines
}

// acceptanceSource places line between two text labels, with sym in .data
// where its %lo part is negative.
func acceptanceSource(line string) string {
	return ".text\nlab:\n\t" + line + "\nfwd:\n\tnop\n.data\n\t.space 0x900\nsym:\n\t.dword 0\n"
}

func TestAssembleAcceptanceDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	accepted := 0
	for _, line := range acceptanceCorpus() {
		p, err := asm.Assemble(acceptanceSource(line))
		buf = append(buf[:0], line...)
		buf = append(buf, 0)
		if err == nil {
			accepted++
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Text)))
			for _, w := range p.Text {
				buf = binary.LittleEndian.AppendUint32(buf, w)
			}
		} else {
			var ae *asm.Error
			if !errors.As(err, &ae) {
				t.Fatalf("%q: error %T is not an *asm.Error: %v", line, err, err)
			}
			buf = append(buf, 0)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ae.Line))
		}
		h.Write(buf)
	}
	for _, scale := range []workloads.Scale{workloads.ScaleTiny, workloads.ScaleDefault, workloads.ScalePaper} {
		for _, name := range workloads.Names() {
			w, err := workloads.Build(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Assemble(w.Source)
			if err != nil {
				t.Fatalf("%s at %v: %v", name, scale, err)
			}
			buf = append(buf[:0], name...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(scale))
			buf = binary.LittleEndian.AppendUint64(buf, p.Entry)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Text)))
			for _, w := range p.Text {
				buf = binary.LittleEndian.AppendUint32(buf, w)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Data)))
			buf = append(buf, p.Data...)
			syms := make([]string, 0, len(p.Symbols))
			for s := range p.Symbols {
				syms = append(syms, s)
			}
			sort.Strings(syms)
			for _, s := range syms {
				buf = append(buf, s...)
				buf = append(buf, 0)
				buf = binary.LittleEndian.AppendUint64(buf, p.Symbols[s])
			}
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != assembleAcceptanceDigest {
		t.Fatalf("assemble acceptance digest %s, want %s (%d lines accepted)", got, assembleAcceptanceDigest, accepted)
	}
}
