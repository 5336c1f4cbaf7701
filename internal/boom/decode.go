package boom

// Per-PC decode/crack cache. Cracking a committed instruction into a µop
// used to re-derive every static property (class, register-file routing,
// source counts, queue selection, call/return shape) from rv64.Op predicate
// tables on every fetch. All of that is a pure function of the decoded
// instruction, so the core caches the cracked form per PC and revalidates
// by comparing the full rv64.Inst — the cache is semantically transparent:
// a PC that re-decodes differently (alias, collision, self-modifying text)
// simply misses and is re-cracked, never served stale. Only per-instance
// dynamic fields (memory address, taken bit, dependencies) are filled per
// µop.

import (
	"repro/internal/rv64"
	"repro/internal/sim"
)

// Rename-table indices, precomputed at crack time so renameSources is a
// straight table walk: integer register r is last[r], FP register r is
// last[32+r]. A source slot that reads nothing (unused, or integer x0)
// maps to renameNone, which is never written; a µop without a destination
// writes renameSink, which is never read.
const (
	renameFp    = 32
	renameNone  = 64
	renameSink  = 65
	renameSlots = 66
)

// Issue-queue selector, precomputed at crack time.
const (
	qInt uint8 = iota
	qMem
	qFp
)

// uopStatic is everything about a µop that is a pure function of the
// decoded instruction. It is computed once per PC by crack and copied into
// each µop wholesale.
type uopStatic struct {
	class   rv64.Class
	memSize uint8

	isLoad, isStore bool
	fpData          bool // store data (or load dest) in FP file
	dstInt, dstFp   bool

	nIntSrc, nFpSrc uint8    // register-file read counts at issue
	srcMap          [3]uint8 // rename-table index per source slot (renameNone when unused)
	dstMap          uint8    // rename-table index of the destination (renameSink when none)

	fpRename bool  // rename activity charged to the FP map table
	qSel     uint8 // qInt/qMem/qFp
	call     bool
	ret      bool

	sig uint16 // activity signature (sigOf), the index of its fold counters
}

// crack fills st from a decoded instruction. The rename-slot layout must
// match the historical renameSources exactly: slot 0 is rs1 when present,
// the next slot is rs2 when present, then rs3 — a slot reads renameNone
// when the operand is integer x0.
func crack(in rv64.Inst, st *uopStatic) {
	op := in.Op
	cl := op.Class()
	*st = uopStatic{
		class:   cl,
		memSize: uint8(op.MemBytes()),
		isLoad:  cl == rv64.ClassLoad,
		isStore: cl == rv64.ClassStore,
		fpData:  op.IsFPMem(),
		srcMap:  [3]uint8{renameNone, renameNone, renameNone},
		dstMap:  renameSink,
	}
	if op.HasRd() {
		if op.FPRd() {
			st.dstFp, st.dstMap = true, renameFp+in.Rd
		} else if in.Rd != 0 {
			st.dstInt, st.dstMap = true, in.Rd
		}
	}
	d := 0
	if op.HasRs1() {
		if op.FPRs1() {
			st.srcMap[d] = renameFp + in.Rs1
			st.nFpSrc++
		} else if in.Rs1 != 0 {
			st.srcMap[d] = in.Rs1
			st.nIntSrc++
		}
		d++
	}
	if op.HasRs2() {
		if op.FPRs2() {
			st.srcMap[d] = renameFp + in.Rs2
			st.nFpSrc++
		} else if in.Rs2 != 0 {
			st.srcMap[d] = in.Rs2
			st.nIntSrc++
		}
		d++
	}
	if op.HasRs3() {
		st.srcMap[d] = renameFp + in.Rs3
		st.nFpSrc++
	}
	switch cl {
	case rv64.ClassLoad, rv64.ClassStore:
		st.qSel = qMem
	case rv64.ClassFPALU, rv64.ClassFPMul, rv64.ClassFPDiv:
		st.qSel = qFp
	}
	st.fpRename = st.dstFp || st.fpData || st.qSel == qFp
	st.call = isCall(in)
	st.ret = isReturn(in)
	st.sig = sigOf(st)
}

// nSrcs counts rename map-table reads (sources in either file).
func (st *uopStatic) nSrcs() int { return int(st.nIntSrc) + int(st.nFpSrc) }

// decEntries sizes the direct-mapped decode cache: 4096 entries cover 16 KiB
// of straight-line text at 4-byte spacing, larger loops still hit through
// index reuse, and collisions are safe because entries revalidate against
// the full instruction encoding.
const decEntries = 4096

type decEntry struct {
	pc    uint64
	inst  rv64.Inst
	st    uopStatic
	valid bool
}

// decode returns the cracked form of r's instruction, cracking and caching
// on a miss or a stale hit.
func (c *Core) decode(r *sim.Retired) *uopStatic {
	e := &c.dec[(r.PC>>2)&(decEntries-1)]
	if !e.valid || e.pc != r.PC || e.inst != r.Inst {
		crack(r.Inst, &e.st)
		e.pc, e.inst, e.valid = r.PC, r.Inst, true
	}
	return &e.st
}
