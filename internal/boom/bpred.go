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
}

func newBPred(cfg *Config, stats *Stats) *bpred {
	b := &bpred{cfg: cfg, stats: stats}
	b.bimodal = make([]int8, 2048)
	histLens := []int{4, 8, 16, 24, 32, 48, 64, 96}
	for t := 0; t < cfg.TageTables; t++ {
		hl := histLens[t%len(histLens)]
		b.tables = append(b.tables, tageTable{
			histLen: hl,
			tags:    make([]uint16, cfg.TageEntries),
			ctr:     make([]int8, cfg.TageEntries),
			useful:  make([]uint8, cfg.TageEntries),
		})
	}
	b.gshare = make([]int8, cfg.GShareEntries)
	b.btbTags = make([]uint64, cfg.BTBEntries)
	b.btbTargets = make([]uint64, cfg.BTBEntries)
	b.btbValid = make([]bool, cfg.BTBEntries)
	b.ras = make([]uint64, cfg.RASEntries)
	return b
}

// reset returns every table to its power-on state — the cold predictor a
// new core starts a simulation point with — and retargets the activity
// counters at stats.
func (b *bpred) reset(stats *Stats) {
	b.stats = stats
	b.hist, b.rasTop, b.rasCnt = 0, 0, 0
	clear(b.bimodal)
	for i := range b.tables {
		clear(b.tables[i].tags)
		clear(b.tables[i].ctr)
		clear(b.tables[i].useful)
	}
	clear(b.gshare)
	clear(b.btbTags)
	clear(b.btbTargets)
	clear(b.btbValid)
	clear(b.ras)
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

// predictCond returns the predicted direction for a conditional branch.
func (b *bpred) predictCond(pc uint64) bool {
	if b.cfg.Predictor == PredictorGShare {
		idx := (mix(pc>>2) ^ b.hist) % uint64(len(b.gshare))
		return b.gshare[idx] >= 0
	}
	for t := len(b.tables) - 1; t >= 0; t-- {
		idx, tag := b.tables[t].index(pc, b.hist)
		if b.tables[t].tags[idx] == tag {
			return b.tables[t].ctr[idx] >= 0
		}
	}
	return b.bimodal[(pc>>2)%uint64(len(b.bimodal))] >= 0
}

// updateCond trains the direction predictor with the architectural outcome
// and shifts the global history.
func (b *bpred) updateCond(pc uint64, taken bool) {
	a := &b.stats.Comp[CompBranchPredictor]
	if b.cfg.Predictor == PredictorGShare {
		idx := (mix(pc>>2) ^ b.hist) % uint64(len(b.gshare))
		b.gshare[idx] = bump2(b.gshare[idx], taken)
		a.Writes++
	} else {
		b.updateTAGE(pc, taken)
	}
	b.hist = b.hist<<1 | boolBit(taken)
}

func (b *bpred) updateTAGE(pc uint64, taken bool) {
	a := &b.stats.Comp[CompBranchPredictor]
	// Find provider (longest matching) and the prediction it made.
	provider := -1
	var pIdx int
	for t := len(b.tables) - 1; t >= 0; t-- {
		idx, tag := b.tables[t].index(pc, b.hist)
		if b.tables[t].tags[idx] == tag {
			provider, pIdx = t, idx
			break
		}
	}
	var predicted bool
	if provider >= 0 {
		predicted = b.tables[provider].ctr[pIdx] >= 0
	} else {
		predicted = b.bimodal[(pc>>2)%uint64(len(b.bimodal))] >= 0
	}

	// Update provider counter (or bimodal).
	if provider >= 0 {
		b.tables[provider].ctr[pIdx] = bump3(b.tables[provider].ctr[pIdx], taken)
		if predicted == taken && b.tables[provider].useful[pIdx] < 3 {
			b.tables[provider].useful[pIdx]++
		}
		a.Writes++
	} else {
		bi := (pc >> 2) % uint64(len(b.bimodal))
		b.bimodal[bi] = bump2(b.bimodal[bi], taken)
		a.Writes++
	}

	// On a mispredict, allocate one entry in a longer-history table.
	if predicted != taken && provider < len(b.tables)-1 {
		for t := provider + 1; t < len(b.tables); t++ {
			idx, tag := b.tables[t].index(pc, b.hist)
			if b.tables[t].useful[idx] == 0 {
				b.tables[t].tags[idx] = tag
				if taken {
					b.tables[t].ctr[idx] = 0
				} else {
					b.tables[t].ctr[idx] = -1
				}
				b.tables[t].useful[idx] = 0
				a.Writes++
				break
			}
			// Decay usefulness so allocation eventually succeeds.
			b.tables[t].useful[idx]--
			a.Writes++
		}
	}
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
