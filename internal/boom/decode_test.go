package boom

import (
	"testing"

	"repro/internal/rv64"
	"repro/internal/sim"
)

// pullOne feeds exactly one retired record through pullTrace and returns
// the cracked µop, dropping the lookahead so the next pull refills its slot.
func pullOne(t *testing.T, c *Core, r sim.Retired) uop {
	t.Helper()
	c.eof = false
	c.next = func(out *sim.Retired) bool {
		*out = r
		return true
	}
	u := c.pullTrace()
	if u == nil {
		t.Fatal("pullTrace returned nil")
	}
	got := *u
	c.peeked = false
	return got
}

// TestDecodeCacheInvalidation: the per-PC decode cache must never serve a
// stale cracked form. Across checkpoint boundaries the same PC can carry a
// different instruction (different checkpoint text, overlay, or an index
// collision), so a cached entry whose full instruction encoding no longer
// matches must be re-cracked.
func TestDecodeCacheInvalidation(t *testing.T) {
	c := mustNew(t, MediumBOOM())
	const pc = 0x8000_0000

	add := sim.Retired{PC: pc, NextPC: pc + 4,
		Inst: rv64.Inst{Op: rv64.ADD, Rd: 3, Rs1: 1, Rs2: 2}}
	u1 := pullOne(t, c, add)
	if u1.class != rv64.ClassALU || u1.qSel != qInt || !u1.dstInt || u1.nIntSrc != 2 {
		t.Fatalf("add cracked wrong: %+v", u1.uopStatic)
	}

	// Same PC, new instruction: a load must not inherit the ALU cracking.
	ld := sim.Retired{PC: pc, NextPC: pc + 4, MemAddr: 0x9000,
		Inst: rv64.Inst{Op: rv64.LD, Rd: 3, Rs1: 1, Imm: 16}}
	u2 := pullOne(t, c, ld)
	if u2.class != rv64.ClassLoad || u2.qSel != qMem || !u2.isLoad || u2.memSize != 8 {
		t.Fatalf("reused stale decode entry: %+v", u2.uopStatic)
	}
	if u2.nIntSrc != 1 || u2.nFpSrc != 0 {
		t.Fatalf("load source counts wrong: %+v", u2.uopStatic)
	}

	// And back again: revalidation must work in both directions.
	u3 := pullOne(t, c, add)
	if u3.class != rv64.ClassALU || u3.isLoad {
		t.Fatalf("reused stale decode entry: %+v", u3.uopStatic)
	}

	// Index collision: a PC that maps to the same direct-mapped entry must
	// evict cleanly, not alias.
	aliasPC := uint64(pc + decEntries*4)
	fadd := sim.Retired{PC: aliasPC, NextPC: aliasPC + 4,
		Inst: rv64.Inst{Op: rv64.FADDD, Rd: 3, Rs1: 1, Rs2: 2}}
	u4 := pullOne(t, c, fadd)
	if u4.class != rv64.ClassFPALU || u4.qSel != qFp || !u4.dstFp || u4.nFpSrc != 2 {
		t.Fatalf("collision served stale entry: %+v", u4.uopStatic)
	}
	u5 := pullOne(t, c, add)
	if u5.class != rv64.ClassALU || u5.dstFp {
		t.Fatalf("collision eviction failed: %+v", u5.uopStatic)
	}
}

// TestCrackMatchesPredicates cross-checks the cached crack against the
// rv64.Op predicate tables for every opcode, so a new instruction class
// can't silently diverge from the historical per-fetch derivation.
func TestCrackMatchesPredicates(t *testing.T) {
	for op := rv64.Op(1); ; op++ {
		if _, known := rv64.OpByName(op.Name()); !known {
			break // past the last defined opcode
		}
		in := rv64.Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Rs3: 8, Imm: 32}
		var st uopStatic
		crack(in, &st)
		if st.class != op.Class() {
			t.Errorf("%v: class %v != %v", op, st.class, op.Class())
		}
		wantInt := 0
		if op.HasRs1() && !op.FPRs1() {
			wantInt++
		}
		if op.HasRs2() && !op.FPRs2() {
			wantInt++
		}
		wantFp := 0
		if op.HasRs1() && op.FPRs1() {
			wantFp++
		}
		if op.HasRs2() && op.FPRs2() {
			wantFp++
		}
		if op.HasRs3() {
			wantFp++
		}
		if int(st.nIntSrc) != wantInt || int(st.nFpSrc) != wantFp {
			t.Errorf("%v: src counts int=%d fp=%d, want %d/%d",
				op, st.nIntSrc, st.nFpSrc, wantInt, wantFp)
		}
		wantDstInt, wantDstFp := false, false
		if op.HasRd() {
			if op.FPRd() {
				wantDstFp = true
			} else {
				wantDstInt = true // rd=5, never x0 here
			}
		}
		if st.dstInt != wantDstInt || st.dstFp != wantDstFp {
			t.Errorf("%v: dst int=%v fp=%v, want %v/%v",
				op, st.dstInt, st.dstFp, wantDstInt, wantDstFp)
		}
		// x0 integer sources must drop both the dependency slot and the
		// register-file read.
		zero := rv64.Inst{Op: op, Rd: 0, Rs1: 0, Rs2: 0, Rs3: 0}
		crack(zero, &st)
		if op.HasRs1() && !op.FPRs1() && st.srcMap[0] != renameNone {
			t.Errorf("%v: x0 rs1 still tracked", op)
		}
		if op.HasRd() && !op.FPRd() && (st.dstInt || st.dstMap != renameSink) {
			t.Errorf("%v: x0 rd still a writer", op)
		}
	}
}
