package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
)

// archState is everything a run leaves behind, in comparable form.
type archState struct {
	PC      uint64
	X, F    [32]uint64
	InstRet uint64
	Halted  bool
	Exit    int64
	Stdout  string
	Pages   int
	Mem     [sha256.Size]byte
}

func stateOf(t *testing.T, c *CPU) archState {
	t.Helper()
	h := sha256.New()
	if err := c.Mem.Serialize(h); err != nil {
		t.Fatal(err)
	}
	s := archState{PC: c.PC, X: c.X, F: c.F, InstRet: c.InstRet, Halted: c.Halted,
		Exit: c.Exit, Stdout: string(c.Stdout), Pages: c.Mem.PageCount()}
	copy(s.Mem[:], h.Sum(nil))
	return s
}

// body is a counted loop that loads, stores, branches, does FP arithmetic
// and writes to stdout, so every record field and every executor path
// (main switch, out-of-line FP, syscall) is live before the ending.
const body = `
	.data
buf:	.dword 1, 2, 3, 4
msg:	.ascii "ab"
	.align 2
bad:	.word 0xFFFFFFFF
	.text
	la   s0, buf
	li   s1, 37
	li   s2, 0
loop:
	andi t0, s1, 3
	slli t0, t0, 3
	add  t0, t0, s0
	ld   t1, 0(t0)
	add  s2, s2, t1
	sd   s2, 0(t0)
	sd   s2, -8(sp)
	fcvt.d.l f1, s2
	fadd.d   f2, f2, f1
	andi t2, s1, 7
	bnez t2, skip
	li   a0, 1
	la   a1, msg
	li   a2, 2
	li   a7, 64
	ecall
skip:
	addi s1, s1, -1
	bnez s1, loop
`

// endings are the ways a program can stop; is recognises the error.
var endings = []struct {
	name string
	tail string
	is   func(error) bool
}{
	{"halt", "mv a0, s2\nli a7, 93\necall\n", func(err error) bool { return err == nil }},
	{"ebreak", "ebreak\n", func(err error) bool { return err == ErrBreakpoint }},
	{"illegal", "la t0, bad\njr t0\n", func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "illegal instruction")
	}},
	{"text-write", "la t0, loop\nsw s2, 2(t0)\n", func(err error) bool { return errors.Is(err, ErrTextWrite) }},
	{"misaligned-fetch", "la t0, loop\naddi t0, t0, 2\njr t0\n", func(err error) bool { return errors.Is(err, ErrMisalignedFetch) }},
	{"bad-syscall", "li a7, 999\necall\n", func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "unsupported syscall")
	}},
}

// TestEntryPointsAgree is the one-executor property: Step×n, Run, RunTrace
// and Fill, driven in random chunk sizes, retire the same records, stop at
// the same retired count with the same error, and leave the same state —
// wherever in a chunk the halt or the fault lands.
func TestEntryPointsAgree(t *testing.T) {
	for _, end := range endings {
		t.Run(end.name, func(t *testing.T) {
			prog, err := asm.Assemble(body + end.tail)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() *CPU {
				c := New()
				c.Load(prog)
				return c
			}

			// Reference: one Step per instruction.
			ref := fresh()
			var want []Retired
			var wantErr error
			for !ref.Halted && wantErr == nil {
				var r Retired
				if wantErr = ref.Step(&r); wantErr == nil {
					want = append(want, r)
				}
			}
			if !end.is(wantErr) {
				t.Fatalf("reference ended with %v", wantErr)
			}
			if len(want) < 3*traceBatch {
				t.Fatalf("program retires only %d instructions; the ending must land beyond a few batches", len(want))
			}
			if ref.InstRet != uint64(len(want)) {
				t.Fatalf("InstRet %d after %d records", ref.InstRet, len(want))
			}
			wantState := stateOf(t, ref)

			check := func(label string, c *CPU, got []Retired, n int64, err error) {
				t.Helper()
				if n != int64(len(want)) {
					t.Errorf("%s: retired %d, reference %d", label, n, len(want))
				}
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !end.is(err) {
					t.Errorf("%s: error %v, reference %v", label, err, wantErr)
				}
				if s := stateOf(t, c); s != wantState {
					t.Errorf("%s: final state differs:\n got %+v\nwant %+v", label, s, wantState)
				}
				if got == nil {
					return
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d records, reference %d", label, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: record %d = %+v, reference %+v", label, i, got[i], want[i])
						return
					}
				}
			}

			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 40; trial++ {
				chunk := func() int64 { return 1 + rng.Int63n(3*traceBatch) }

				c := fresh()
				var n int64
				var err error
				for !c.Halted && err == nil {
					err = c.Step(nil)
					if err == nil {
						n++
					}
				}
				check("Step(nil)", c, nil, n, err)

				c, n, err = fresh(), 0, nil
				for !c.Halted && err == nil {
					var k int64
					k, err = c.Run(chunk())
					n += k
				}
				check("Run", c, nil, n, err)

				c, n, err = fresh(), 0, nil
				var got []Retired
				for !c.Halted && err == nil {
					var k int64
					k, err = c.RunTrace(chunk(), func(r *Retired) { got = append(got, *r) })
					n += k
				}
				check("RunTrace", c, got, n, err)

				c, n, err, got = fresh(), 0, nil, nil
				for !c.Halted && err == nil {
					recs := make([]Retired, chunk())
					var k int
					k, err = c.Fill(recs)
					got = append(got, recs[:k]...)
					n += int64(k)
				}
				check("Fill", c, got, n, err)
			}

			// Unbounded forms.
			c := fresh()
			n, err := c.Run(-1)
			check("Run(-1)", c, nil, n, err)
			c = fresh()
			var got []Retired
			n, err = c.RunTrace(-1, func(r *Retired) { got = append(got, *r) })
			check("RunTrace(-1)", c, got, n, err)
		})
	}
}

// TestStoreIntoTextIsRefused: text is write-protected (W^X). A store that
// overlaps the window by even one byte faults with ErrTextWrite, does not
// retire and changes nothing; a store flush against either edge is fine.
func TestStoreIntoTextIsRefused(t *testing.T) {
	prog, err := asm.Assemble("\t.text\n\tnop\n\tnop\n\tnop\n\tnop\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := prog.TextAddr, prog.TextAddr+4*uint64(len(prog.Text))
	for _, tc := range []struct {
		op      string
		addr    uint64
		refused bool
	}{
		{"sb", lo - 1, false}, {"sb", lo, true}, {"sb", hi - 1, true}, {"sb", hi, false},
		{"sh", lo - 2, false}, {"sh", lo - 1, true}, {"sh", hi - 1, true}, {"sh", hi, false},
		{"sw", lo - 4, false}, {"sw", lo - 3, true}, {"sw", lo + 4, true}, {"sw", hi, false},
		{"sd", lo - 8, false}, {"sd", lo - 7, true}, {"sd", hi - 1, true}, {"sd", hi, false},
		{"fsd", lo - 8, false}, {"fsd", lo - 1, true}, {"fsd", hi, false},
	} {
		val := "t1"
		if tc.op == "fsd" {
			val = "f0"
		}
		// The storing program runs from outside the window, decoded from
		// memory; the window under test is prog's.
		runner, err := asm.AssembleAt(fmt.Sprintf("\t.text\n\tli t0, %d\n\t%s %s, 0(t0)\n\tli a0, 0\n", tc.addr, tc.op, val)+exit,
			0x40000, asm.DefaultDataBase)
		if err != nil {
			t.Fatal(err)
		}
		c := New()
		c.Mem.SetBytes(prog.TextAddr, prog.TextBytes())
		c.AttachText(prog)
		c.Mem.SetBytes(runner.TextAddr, runner.TextBytes())
		c.PC = runner.Entry
		before := c.Mem.ReadBytes(lo-8, int(hi-lo)+16)
		_, err = c.Run(-1)
		if tc.refused {
			if !errors.Is(err, ErrTextWrite) {
				t.Errorf("%s at %#x (window %#x..%#x): err = %v, want ErrTextWrite", tc.op, tc.addr, lo, hi, err)
			}
			if after := c.Mem.ReadBytes(lo-8, int(hi-lo)+16); string(after) != string(before) {
				t.Errorf("%s at %#x: refused store still changed memory", tc.op, tc.addr)
			}
			if c.Halted {
				t.Errorf("%s at %#x: ran past the refused store", tc.op, tc.addr)
			}
		} else if err != nil || !c.Halted {
			t.Errorf("%s at %#x (window %#x..%#x): err = %v halted = %v, want a clean exit", tc.op, tc.addr, lo, hi, err, c.Halted)
		}
	}
}

// TestMisalignedFetchIsTyped: a PC that is not a multiple of four faults
// with ErrMisalignedFetch inside the text window and outside it, instead
// of decoding whatever bytes sit there.
func TestMisalignedFetchIsTyped(t *testing.T) {
	prog, err := asm.Assemble("\t.text\n\tnop\n\tnop\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{prog.TextAddr + 2, prog.TextAddr + 1, 0x9002} {
		c := New()
		c.Load(prog)
		c.PC = pc
		err := c.Step(nil)
		if !errors.Is(err, ErrMisalignedFetch) {
			t.Errorf("pc=%#x: err = %v, want ErrMisalignedFetch", pc, err)
		}
		if c.PC != pc || c.InstRet != 0 {
			t.Errorf("pc=%#x: faulting fetch moved the CPU to pc=%#x instret=%d", pc, c.PC, c.InstRet)
		}
	}
}

// TestWriteSyscallStraddlesPages: the write syscall copies its buffer out
// of memory page chunk by page chunk.
func TestWriteSyscallStraddlesPages(t *testing.T) {
	msg := "straddles-two-pages"
	c := run(t, fmt.Sprintf(`
		.data
		.space %d
	msg:	.ascii %q
		.text
		li a0, 1
		la a1, msg
		li a2, %d
		li a7, 64
		ecall
		li a0, 0
	`, mem.PageSize-5, msg, len(msg))+exit)
	if string(c.Stdout) != msg {
		t.Fatalf("stdout = %q, want %q", c.Stdout, msg)
	}
}
