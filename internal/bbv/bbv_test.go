package bbv

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/sim"
)

func traceProgram(t *testing.T, src string, interval int64) *Profiler {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.New()
	c.Load(prog)
	p := NewProfiler(interval)
	if _, err := c.RunTrace(-1, p.Observe); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("program did not halt")
	}
	p.Finish()
	return p
}

// twoPhase runs phase A (tight 2-inst loop) then phase B (different 4-inst
// loop), each for many iterations.
const twoPhase = `
	.text
	li t0, 3000
phaseA:
	addi t0, t0, -1
	bnez t0, phaseA
	li t0, 1500
phaseB:
	addi t1, t1, 1
	addi t2, t2, 2
	addi t0, t0, -1
	bnez t0, phaseB
	li a7, 93
	ecall
`

func TestIntervalCount(t *testing.T) {
	p := traceProgram(t, twoPhase, 1000)
	// ~6000 (A) + ~6000 (B) + small tails ≈ 12 intervals
	n := len(p.Vectors())
	if n < 11 || n > 14 {
		t.Fatalf("got %d intervals", n)
	}
	// Every complete interval must sum to the interval size.
	for i, v := range p.Vectors()[:n-1] {
		if v.Total() != 1000 {
			t.Errorf("interval %d total %v", i, v.Total())
		}
	}
}

func TestPhaseSeparation(t *testing.T) {
	p := traceProgram(t, twoPhase, 1000)
	vs := p.Vectors()
	// Blocks exercised early (phase A) must be disjoint from the blocks that
	// dominate late intervals (phase B).
	early, late := vs[1], vs[len(vs)-2]
	shared := 0.0
	for b, w := range early {
		if w2, ok := late[b]; ok {
			if w < w2 {
				shared += w
			} else {
				shared += w2
			}
		}
	}
	if shared > 50 { // at most noise from loop prologues
		t.Fatalf("phases share %v instructions of weight", shared)
	}
}

func TestBlockDiscovery(t *testing.T) {
	p := traceProgram(t, twoPhase, 1000)
	// Expected blocks: entry..bnez(A), phaseA loop body, li..bnez(B) after A,
	// phaseB body, exit block. Allow some slack for li expansions.
	if n := p.NumBlocks(); n < 4 || n > 8 {
		t.Fatalf("discovered %d blocks", n)
	}
}

func TestPartialFinalInterval(t *testing.T) {
	p := traceProgram(t, `
		.text
		li t0, 10
	l:
		addi t0, t0, -1
		bnez t0, l
		li a7, 93
		ecall
	`, 1000)
	vs := p.Vectors()
	if len(vs) != 1 {
		t.Fatalf("got %d intervals, want 1 partial", len(vs))
	}
	if vs[0].Total() >= 1000 || vs[0].Total() < 20 {
		t.Fatalf("partial interval total %v", vs[0].Total())
	}
}
