package boom

// Closed-form activity identities: counts that the trace alone fixes,
// whatever the timing. They hold the per-signature fold (sig.go) to the
// per-µop charges it replaced — dropping any one delta from the fold fails
// exactly its identity.

import (
	"math"
	"testing"

	"repro/internal/rv64"
	"repro/internal/sim"
)

// traceCounts is what a trace says its µops are.
type traceCounts struct {
	insts, loads, stores, ctrl, intDst, fpDst, srcs uint64
}

func countTrace(tr []sim.Retired) traceCounts {
	var n traceCounts
	for i := range tr {
		in := tr[i].Inst
		op := in.Op
		n.insts++
		switch op.Class() {
		case rv64.ClassLoad:
			n.loads++
		case rv64.ClassStore:
			n.stores++
		case rv64.ClassBranch, rv64.ClassJAL, rv64.ClassJALR:
			n.ctrl++
		}
		switch {
		case op.HasRd() && op.FPRd():
			n.fpDst++
		case op.HasRd() && in.Rd != 0:
			n.intDst++
		}
		// Register sources, as rename reads them: integer x0 is none.
		if op.HasRs1() && (op.FPRs1() || in.Rs1 != 0) {
			n.srcs++
		}
		if op.HasRs2() && (op.FPRs2() || in.Rs2 != 0) {
			n.srcs++
		}
		if op.HasRs3() {
			n.srcs++
		}
	}
	return n
}

func TestActivityIdentities(t *testing.T) {
	for _, name := range []string{"sha", "qsort", "tarfind"} {
		tr := workloadTrace(t, name)
		want := countTrace(tr)
		for _, cfg := range Configs() {
			c := mustNew(t, cfg)
			mustRun(t, c, (&replaySource{tr: tr}).next, math.MaxUint64)
			s := c.Stats()
			comp := func(k Component) Activity { return s.Comp[k] }
			// Every right-hand side comes from the trace (or, for the
			// D-cache's line fills, the miss count), so one wrong charge
			// fails one identity.
			for _, id := range []struct {
				what      string
				got, want uint64
			}{
				{"Insts = µops", s.Insts, want.insts},
				{"ROB reads = µops", comp(CompRob).Reads, want.insts},
				{"ROB writes = µops", comp(CompRob).Writes, want.insts},
				{"FetchBuffer reads = µops", comp(CompFetchBuffer).Reads, want.insts},
				{"Other reads = µops", comp(CompOther).Reads, want.insts},
				{"Loads = load µops", s.Loads, want.loads},
				{"Stores = store µops", s.Stores, want.stores},
				{"LSU writes = load + store µops", comp(CompLSU).Writes, want.loads + want.stores},
				{"LSU reads = load + store µops", comp(CompLSU).Reads, want.loads + want.stores},
				{"DCache writes = store µops + load misses", comp(CompDCache).Writes, want.stores + s.DCacheMisses},
				{"IntRename shifts = IntPhysRegs × control µops", comp(CompIntRename).Shifts, uint64(cfg.IntPhysRegs) * want.ctrl},
				{"FpRename shifts = FpPhysRegs × control µops", comp(CompFpRename).Shifts, uint64(cfg.FpPhysRegs) * want.ctrl},
				{"rename reads = register sources", comp(CompIntRename).Reads + comp(CompFpRename).Reads, want.srcs},
				{"rename writes = destination µops", comp(CompIntRename).Writes + comp(CompFpRename).Writes, want.intDst + want.fpDst},
				{"IntRF writes = integer-destination µops", comp(CompIntRF).Writes, want.intDst},
				{"FpRF writes = FP-destination µops", comp(CompFpRF).Writes, want.fpDst},
			} {
				if id.got != id.want {
					t.Errorf("%s on %s: %s: got %d, want %d", name, cfg.Name, id.what, id.got, id.want)
				}
			}
		}
	}
	// Stopped mid-flight, the ROB holds what was written and not yet read.
	tr := workloadTrace(t, "qsort")
	for _, cfg := range Configs() {
		c := mustNew(t, cfg)
		mustRun(t, c, (&replaySource{tr: tr}).next, uint64(len(tr)/3))
		rob := c.mid - c.head
		if rob == 0 {
			t.Fatalf("%s: the ROB drained; the case needs it occupied", cfg.Name)
		}
		if a := c.Stats().Comp[CompRob]; a.Writes-a.Reads != rob {
			t.Errorf("%s stopped mid-flight: ROB writes − reads = %d, occupancy %d", cfg.Name, a.Writes-a.Reads, rob)
		}
	}
}

// TestRunToTheEndAfterAPartialRun: Run(next, math.MaxUint64) drains the
// trace however many instructions the core has already retired.
func TestRunToTheEndAfterAPartialRun(t *testing.T) {
	tr := workloadTrace(t, "sha")
	c := mustNew(t, MediumBOOM())
	src := &replaySource{tr: tr}
	first := mustRun(t, c, src.next, 1000)
	rest := mustRun(t, c, src.next, math.MaxUint64)
	if first == 0 || first+rest != uint64(len(tr)) || src.pos != len(tr) {
		t.Errorf("Run(1000) retired %d, then Run(MaxUint64) %d, of %d; %d records unread", first, rest, len(tr), len(tr)-src.pos)
	}
}
