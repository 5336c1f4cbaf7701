// Package bbv builds Basic Block Vectors from the committed instruction
// stream, playing the role gem5 plays in the paper's SimPoint flow (Fig. 4):
// execution is split into fixed-size intervals, and each interval is
// summarized by how many dynamic instructions it spent in each static basic
// block.
//
// Basic blocks are discovered dynamically: a block begins at the target of
// any control transfer (or the program entry) and ends at the next control
// transfer instruction. Each retired instruction adds one unit of weight to
// its enclosing block, so a block's weight is execution count × block
// length, exactly the quantity the SimPoint methodology clusters on.
package bbv

import (
	"repro/internal/sim"
)

// Vector maps basic-block ID to the number of dynamic instructions the
// interval spent in that block.
type Vector map[int]float64

// Total returns the sum of all weights (the interval length, for complete
// intervals).
func (v Vector) Total() float64 {
	var t float64
	for _, w := range v {
		t += w
	}
	return t
}

// Profiler accumulates BBVs over a run. Feed it every retired instruction
// via Observe, then call Finish once.
//
// Counting is run-length: Observe counts the instructions of the block in
// flight in run and adds the run to a dense per-interval count slice
// (indexed by block ID) when the block ends; the Vector map is only built
// when an interval closes. Counts are integers far below 2^53, so the
// float64 weights are exactly what per-instruction increments would give.
type Profiler struct {
	interval int64

	ids     map[uint64]int // block start PC → block ID
	counts  []int64        // this interval's instructions per block ID
	touched []int          // block IDs with a non-zero count, in first-touch order
	count   int64          // instructions in this interval, the open run included
	run     int64          // instructions of the open block not yet in counts
	blockID int            // block being executed
	inBlock bool           // whether blockID is valid

	vectors []Vector
	starts  []uint64 // per-interval start PC (checkpoint anchor)
	pending uint64   // start PC of the next interval
	havePC  bool
}

// NewProfiler returns a profiler with the given interval size in
// instructions. Interval sizes of 1M–2M instructions correspond to the
// paper's Table II; scaled-down runs use proportionally smaller intervals.
func NewProfiler(intervalSize int64) *Profiler {
	return &Profiler{
		interval: intervalSize,
		ids:      make(map[uint64]int),
	}
}

// Observe processes one retired instruction.
func (p *Profiler) Observe(r *sim.Retired) {
	if !p.inBlock {
		p.enterBlock(r.PC)
	}
	p.run++
	p.count++

	// A control-flow instruction (taken or not) ends the block: the next
	// instruction starts a new one keyed by its own PC.
	if r.Inst.Op.IsBranchOrJump() {
		p.closeRun()
	}

	if p.count >= p.interval {
		p.flush(r.NextPC)
	}
}

// enterBlock opens the block starting at pc, numbering it on first sight.
func (p *Profiler) enterBlock(pc uint64) {
	if !p.havePC {
		p.pending = pc
		p.havePC = true
	}
	id, ok := p.ids[pc]
	if !ok {
		id = len(p.ids)
		p.ids[pc] = id
		p.counts = append(p.counts, 0)
	}
	p.blockID = id
	p.inBlock = true
}

// closeRun credits the open block with the instructions counted since it
// was entered and leaves no block open.
func (p *Profiler) closeRun() {
	if p.run > 0 {
		if p.counts[p.blockID] == 0 {
			p.touched = append(p.touched, p.blockID)
		}
		p.counts[p.blockID] += p.run
		p.run = 0
	}
	p.inBlock = false
}

// flush closes the interval: an interval boundary inside a block splits the
// block's instructions between the two intervals, and the next instruction
// opens a block keyed by its own PC.
func (p *Profiler) flush(nextPC uint64) {
	p.closeRun()
	v := make(Vector, len(p.touched))
	for _, id := range p.touched {
		v[id] = float64(p.counts[id])
		p.counts[id] = 0
	}
	p.touched = p.touched[:0]
	p.vectors = append(p.vectors, v)
	p.starts = append(p.starts, p.pending)
	p.pending = nextPC
	p.count = 0
}

// Finish closes the trailing partial interval (if it contains at least one
// instruction). Call after the traced run completes.
func (p *Profiler) Finish() {
	if p.count > 0 {
		p.flush(0)
	}
}

// Vectors returns one BBV per interval, in execution order.
func (p *Profiler) Vectors() []Vector { return p.vectors }

// IntervalStarts returns the PC at which each interval begins; interval i
// starts at instruction i×interval of the committed stream.
func (p *Profiler) IntervalStarts() []uint64 { return p.starts }

// NumBlocks reports how many static basic blocks were discovered.
func (p *Profiler) NumBlocks() int { return len(p.ids) }

// IntervalSize returns the configured interval length.
func (p *Profiler) IntervalSize() int64 { return p.interval }
