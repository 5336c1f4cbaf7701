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
//
// Like gem5's --simpoint-profile on its atomic CPU, the profiler needs only
// block counts: the profile pass feeds it sim.CPU.RunBlocks' runs, one
// record per basic block executed, never a record per instruction.
//
// The package writes vectors in SimPoint 3.0's .bb text (WriteBB), for the
// reference tool, and reads no file: the artifact cache stores them in its
// own binary payload (internal/core), each interval as its non-zero
// (block, count) entries.
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

// Profiler accumulates BBVs over a run. Feed it the block runs of
// sim.CPU.RunBlocks via ObserveBlocks — or, one instruction at a time, the
// records of sim.CPU.RunTrace via Observe, never both — then call Finish
// once.
//
// Counting is run-length: a run credits its whole length to its block at
// once, and the open block's instructions are added to a dense
// per-interval count slice (indexed by block ID) when the block ends; the
// Vector map is only built when an interval closes. Counts are integers far
// below 2^53, so the float64 weights are exactly what per-instruction
// increments would give.
type Profiler struct {
	interval int64

	byText  []int32        // text-window index → block ID + 1 (0: not yet seen)
	ids     map[uint64]int // block start PC → block ID, for PCs outside the window
	counts  []int64        // this interval's instructions per block ID
	touched []int          // block IDs with a non-zero count, in first-touch order
	count   int64          // instructions in this interval, the open run included
	run     int64          // instructions of the open block not yet in counts
	blockID int            // block being executed
	inBlock bool           // whether blockID is valid

	vectors []Vector
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

// ObserveBlocks counts the runs one sim.CPU.RunBlocks batch delivered. No
// run may cross an interval boundary — stop each RunBlocks call at the next
// one — and ObserveBlocks panics on one that does.
func (p *Profiler) ObserveBlocks(bs []sim.Block) {
	for i := range bs {
		b := &bs[i]
		if !p.inBlock {
			if t := uint(b.Text); t < uint(len(p.byText)) && p.byText[t] != 0 {
				p.blockID, p.inBlock = int(p.byText[t])-1, true
			} else {
				p.enterBlock(b.PC, b.Text)
			}
		}
		p.run += b.N
		p.count += b.N

		// A control-flow instruction (taken or not) ends the block: the next
		// run starts a new one keyed by its own PC.
		if b.End {
			p.closeRun()
		}
		if p.count >= p.interval {
			p.endInterval()
		}
	}
}

// Observe processes one retired instruction: ObserveBlocks' step for a
// one-instruction run, its block found by PC.
func (p *Profiler) Observe(r *sim.Retired) {
	if !p.inBlock {
		p.enterBlock(r.PC, -1)
	}
	p.run++
	p.count++
	if r.Inst.Op.IsBranchOrJump() {
		p.closeRun()
	}
	if p.count >= p.interval {
		p.endInterval()
	}
}

// enterBlock opens the block starting at pc, numbering it on first sight:
// by its text-window index text in a dense table, or by PC in a map when
// text is -1 (outside the window, or a caller that does not know it).
func (p *Profiler) enterBlock(pc uint64, text int32) {
	var id int
	if t := int(text); t >= 0 {
		if t >= len(p.byText) {
			p.byText = append(p.byText, make([]int32, t+1-len(p.byText))...)
		}
		if p.byText[t] == 0 {
			p.byText[t] = int32(p.newBlock() + 1)
		}
		id = int(p.byText[t]) - 1
	} else {
		var ok bool
		if id, ok = p.ids[pc]; !ok {
			id = p.newBlock()
			p.ids[pc] = id
		}
	}
	p.blockID = id
	p.inBlock = true
}

// endInterval closes the interval the last run completed.
func (p *Profiler) endInterval() {
	if p.count > p.interval {
		panic("bbv: a run crosses an interval boundary")
	}
	p.flush()
}

// newBlock numbers a block seen for the first time: IDs follow first-seen
// order.
func (p *Profiler) newBlock() int {
	p.counts = append(p.counts, 0)
	return len(p.counts) - 1
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
// block's instructions between the two intervals, and the next run opens a
// block keyed by its own PC.
func (p *Profiler) flush() {
	p.closeRun()
	v := make(Vector, len(p.touched))
	for _, id := range p.touched {
		v[id] = float64(p.counts[id])
		p.counts[id] = 0
	}
	p.touched = p.touched[:0]
	p.vectors = append(p.vectors, v)
	p.count = 0
}

// Finish closes the trailing partial interval (if it contains at least one
// instruction). Call after the traced run completes.
func (p *Profiler) Finish() {
	if p.count > 0 {
		p.flush()
	}
}

// Vectors returns one BBV per interval, in execution order.
func (p *Profiler) Vectors() []Vector { return p.vectors }

// NumBlocks reports how many static basic blocks were discovered.
func (p *Profiler) NumBlocks() int { return len(p.counts) }

// IntervalSize returns the configured interval length.
func (p *Profiler) IntervalSize() int64 { return p.interval }
