package boom

import "repro/internal/rv64"

// bpred models BOOM's front-end prediction stack: a TAGE direction
// predictor (or GShare for the ablation), a branch target buffer, and a
// return address stack. Every lookup and update is charged to the
// BranchPredictor component.
type bpred struct {
	cfg   *Config
	stats *Stats

	hist uint64 // global history (newest outcome in bit 0)

	// TAGE.
	bimodal []int8 // 2-bit counters
	tables  []tageTable

	// GShare.
	gshare []int8

	// BTB (direct-mapped with tags).
	btbTags    []uint64
	btbTargets []uint64
	btbValid   []bool

	// RAS.
	ras    []uint64
	rasTop int
	rasCnt int
}

type tageTable struct {
	histLen int
	tags    []uint16
	ctr     []int8 // 3-bit signed counter: >= 0 predicts taken
	useful  []uint8

	idx int    // the current branch's index into this table
	tag uint16 // and its tag
}

// tageHistLens are the tagged tables' history lengths, shortest first; a
// configuration with more tables reuses them cyclically.
var tageHistLens = [...]int{4, 8, 16, 24, 32, 48, 64, 96}

// reset sizes every table for cfg and returns it to its power-on state —
// the cold predictor a new core starts a simulation point with — and
// retargets the activity counters at stats. A table whose backing array
// holds the new size is reused.
func (b *bpred) reset(cfg *Config, stats *Stats) {
	b.cfg, b.stats = cfg, stats
	b.hist, b.rasTop, b.rasCnt = 0, 0, 0
	b.bimodal = sized(b.bimodal, 2048)
	if cap(b.tables) < cfg.TageTables {
		b.tables = make([]tageTable, cfg.TageTables)
	}
	b.tables = b.tables[:cfg.TageTables]
	for t := range b.tables {
		tt := &b.tables[t]
		*tt = tageTable{
			histLen: tageHistLens[t%len(tageHistLens)],
			tags:    sized(tt.tags, cfg.TageEntries),
			ctr:     sized(tt.ctr, cfg.TageEntries),
			useful:  sized(tt.useful, cfg.TageEntries),
		}
	}
	b.gshare = sized(b.gshare, cfg.GShareEntries)
	b.btbTags = sized(b.btbTags, cfg.BTBEntries)
	b.btbTargets = sized(b.btbTargets, cfg.BTBEntries)
	b.btbValid = sized(b.btbValid, cfg.BTBEntries)
	b.ras = sized(b.ras, cfg.RASEntries)
}

func mix(pc uint64) uint64 {
	pc ^= pc >> 13
	pc *= 0x9E3779B97F4A7C15
	return pc ^ pc>>29
}

func (t *tageTable) index(pc, hist uint64) (idx int, tag uint16) {
	h := hist
	if t.histLen < 64 {
		h &= 1<<uint(t.histLen) - 1
	}
	v := mix(pc>>2 ^ h*0x45D9F3B3)
	return int(v % uint64(len(t.tags))), uint16(v>>20)&0x3FF | 1 // nonzero 10-bit tag
}

// lookupCycle charges the per-fetch-cycle read activity: in a real BOOM the
// predictor RAMs and the BTB are read every fetch cycle regardless of
// whether a branch is present.
func (b *bpred) lookupCycle() {
	a := &b.stats.Comp[CompBranchPredictor]
	if b.cfg.Predictor == PredictorTAGE {
		a.Reads += uint64(len(b.tables)) + 1 // tagged tables + bimodal
		a.CAMSearches += uint64(len(b.tables))
	} else {
		a.Reads++
	}
	a.Reads++ // BTB read
}

// cond predicts a conditional branch at pc, trains the direction
// predictor with its architectural outcome and shifts the global history.
// It returns the prediction.
func (b *bpred) cond(pc uint64, taken bool) bool {
	var predicted bool
	if b.cfg.Predictor == PredictorGShare {
		idx := (mix(pc>>2) ^ b.hist) % uint64(len(b.gshare))
		predicted = b.gshare[idx] >= 0
		b.gshare[idx] = bump2(b.gshare[idx], taken)
		b.stats.Comp[CompBranchPredictor].Writes++
	} else {
		predicted = b.condTAGE(pc, taken)
	}
	b.hist = b.hist<<1 | boolBit(taken)
	return predicted
}

// condTAGE is cond on TAGE. Each table's index and tag are computed at
// most once per branch: the provider search computes them from the longest
// history down to the provider, and the update and the allocation (which
// only looks at longer tables) reuse them.
func (b *bpred) condTAGE(pc uint64, taken bool) bool {
	a := &b.stats.Comp[CompBranchPredictor]
	// Find provider (longest matching) and the prediction it made.
	provider := -1
	for t := len(b.tables) - 1; t >= 0; t-- {
		tt := &b.tables[t]
		tt.idx, tt.tag = tt.index(pc, b.hist)
		if tt.tags[tt.idx] == tt.tag {
			provider = t
			break
		}
	}
	var predicted bool
	if provider >= 0 {
		p := &b.tables[provider]
		predicted = p.ctr[p.idx] >= 0
		// Update provider counter.
		p.ctr[p.idx] = bump3(p.ctr[p.idx], taken)
		if predicted == taken && p.useful[p.idx] < 3 {
			p.useful[p.idx]++
		}
	} else {
		bi := (pc >> 2) % uint64(len(b.bimodal))
		predicted = b.bimodal[bi] >= 0
		b.bimodal[bi] = bump2(b.bimodal[bi], taken)
	}
	a.Writes++

	// On a mispredict, allocate one entry in a longer-history table.
	if predicted != taken && provider < len(b.tables)-1 {
		for t := provider + 1; t < len(b.tables); t++ {
			tt := &b.tables[t]
			if tt.useful[tt.idx] == 0 {
				tt.tags[tt.idx] = tt.tag
				if taken {
					tt.ctr[tt.idx] = 0
				} else {
					tt.ctr[tt.idx] = -1
				}
				tt.useful[tt.idx] = 0
				a.Writes++
				break
			}
			// Decay usefulness so allocation eventually succeeds.
			tt.useful[tt.idx]--
			a.Writes++
		}
	}
	return predicted
}

// bpOutcome is what training one control-flow instruction tells the front
// end: fetch carries on, a redirect is due when the instruction resolves,
// or decode supplies the target after a BTB bubble.
type bpOutcome uint8

const (
	bpHit bpOutcome = iota
	bpMispredict
	bpBTBMiss
)

// train is the front end's one training entry: it predicts the
// control-flow instruction st at pc, trains the direction predictor, BTB
// and RAS with its architectural outcome (taken, and nextPC, the PC that
// follows it) and counts Branches, Mispredicts and BTBMisses. Fetch calls
// it for each fetched µop and Core.Warm for each warming record, both in
// program order, so the two leave the same predictor state.
func (b *bpred) train(st *uopStatic, pc uint64, taken bool, nextPC uint64) bpOutcome {
	s := b.stats
	switch st.class {
	case rv64.ClassBranch:
		s.Branches++
		if b.cond(pc, taken) != taken {
			s.Mispredicts++
			if taken {
				b.btbUpdate(pc, nextPC)
			}
			return bpMispredict
		}
		if !taken {
			return bpHit
		}
		// Correctly predicted taken: the target must come from the BTB.
		return b.btbTarget(pc, nextPC)

	case rv64.ClassJAL:
		if st.call {
			b.rasPush(pc + 4)
		}
		return b.btbTarget(pc, nextPC)

	case rv64.ClassJALR:
		s.Branches++
		var predicted uint64
		var havePred bool
		if st.ret {
			predicted, havePred = b.rasPop()
		} else {
			predicted, havePred = b.btbLookup(pc)
		}
		if st.call {
			b.rasPush(pc + 4)
		}
		if !havePred || predicted != nextPC {
			s.Mispredicts++
			if !st.ret {
				b.btbUpdate(pc, nextPC)
			}
			return bpMispredict
		}
	}
	return bpHit
}

// btbTarget is the BTB half of a taken branch or jump whose direction is
// known at fetch: a missing or stale entry costs a bubble and is
// installed.
func (b *bpred) btbTarget(pc, nextPC uint64) bpOutcome {
	if tgt, hit := b.btbLookup(pc); hit && tgt == nextPC {
		return bpHit
	}
	b.stats.BTBMisses++
	b.btbUpdate(pc, nextPC)
	return bpBTBMiss
}

// isControl reports whether class cl is control flow, which train
// predicts.
func isControl(cl rv64.Class) bool {
	return cl == rv64.ClassBranch || cl == rv64.ClassJAL || cl == rv64.ClassJALR
}

// endsFetchGroup reports whether a control-flow µop of class cl that
// trained to o ends its fetch group: every jump and taken branch does, and
// so does a mispredict, whose redirect is pending.
func endsFetchGroup(cl rv64.Class, taken bool, o bpOutcome) bool {
	return o == bpMispredict || taken || cl != rv64.ClassBranch
}

// btbLookup returns the predicted target for pc, if any.
func (b *bpred) btbLookup(pc uint64) (uint64, bool) {
	idx := (pc >> 2) % uint64(len(b.btbTags))
	if b.btbValid[idx] && b.btbTags[idx] == pc {
		return b.btbTargets[idx], true
	}
	return 0, false
}

// btbUpdate installs a taken-control-flow target.
func (b *bpred) btbUpdate(pc, target uint64) {
	idx := (pc >> 2) % uint64(len(b.btbTags))
	b.btbTags[idx] = pc
	b.btbTargets[idx] = target
	b.btbValid[idx] = true
	b.stats.Comp[CompBranchPredictor].Writes++
}

// RAS operations: calls push the return address, returns pop a prediction.
func (b *bpred) rasPush(ret uint64) {
	b.rasTop = (b.rasTop + 1) % len(b.ras)
	b.ras[b.rasTop] = ret
	if b.rasCnt < len(b.ras) {
		b.rasCnt++
	}
	b.stats.Comp[CompBranchPredictor].Writes++
}

func (b *bpred) rasPop() (uint64, bool) {
	if b.rasCnt == 0 {
		return 0, false
	}
	v := b.ras[b.rasTop]
	b.rasTop = (b.rasTop - 1 + len(b.ras)) % len(b.ras)
	b.rasCnt--
	b.stats.Comp[CompBranchPredictor].Reads++
	return v, true
}

// bump2 saturates a 2-bit signed counter in [-2, 1].
func bump2(c int8, up bool) int8 {
	if up {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

// bump3 saturates a 3-bit signed counter in [-4, 3].
func bump3(c int8, up bool) int8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// isCall reports whether in is a call (writes the link register).
func isCall(in rv64.Inst) bool {
	return (in.Op == rv64.JAL || in.Op == rv64.JALR) && in.Rd == rv64.RegRA
}

// isReturn reports whether in is a return (jalr through ra without linking).
func isReturn(in rv64.Inst) bool {
	return in.Op == rv64.JALR && in.Rd == 0 && in.Rs1 == rv64.RegRA
}
