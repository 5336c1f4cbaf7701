// Package mav builds Memory Access Vectors from the committed
// instruction stream: per-interval summaries of cache-line stride and
// reuse behavior that capture what Basic Block Vectors cannot. Two
// intervals can execute identical code (identical BBVs) while one
// streams through a multi-hundred-kilobyte working set and the other
// hits a hot cache-resident structure; BBV-only SimPoint clustering
// merges them and mis-samples memory-bound phases. Following the
// "Memory Access Vectors" result (Caculo et al., PAPERS.md), each
// interval is summarized by a small fixed-dimension feature vector the
// clusterer concatenates onto the projected BBV point.
//
// The profiler counts every retired instruction — not just memory ops —
// so its interval boundaries land on exactly the same committed-stream
// offsets as bbv.Profiler's. Vector i here and BBV i describe the same
// instructions. The profile pass feeds both from one sim.CPU.RunBlocks
// call: the block runs give the instruction count, the memory references
// (RunBlocks with refs set) the loads' and stores' addresses.
//
// A MAV is a clustering feature, not a file: the package has no format of
// its own. Under a bbv+mav spec the artifact cache stores the vectors in
// the profile stage's binary payload (internal/core), each interval as its
// non-zero (feature, count) entries, the same encoding as the BBVs beside
// them.
package mav

import (
	"repro/internal/rv64"
	"repro/internal/sim"
)

// lineShift converts an effective address to a 64-byte cache-line index,
// the granularity at which stride and reuse are classified.
const lineShift = 6

// reuseWindow is the capacity of the per-interval recency set used for
// the near-reuse feature: an access whose line is among the last
// reuseWindow distinct lines inserted counts as a reuse hit. 64 lines
// (4 KiB) approximates an L1 set's worth of short-term locality without
// modeling any concrete cache. The window evicts FIFO rather than LRU —
// O(1) per access, and just as deterministic.
const reuseWindow = 64

// Feature indices of a Vector. The dimensionality is fixed: unlike
// BBVs, whose block space grows with the program, MAV features are a
// closed taxonomy of access behavior.
const (
	FeatLoads       = iota // retired loads
	FeatStores             // retired stores
	FeatUniqueLines        // distinct cache lines touched this interval
	FeatSameLine           // accesses to the same line as the previous access
	FeatNearStride         // line stride of ±1 (sequential streaming)
	FeatSmallStride        // line stride in [2, 8] (strided array walks)
	FeatLargeStride        // line stride > 8 (pointer chasing, big jumps)
	FeatReuseHits          // accesses whose line is in the recent-64 window

	NumFeatures = 8
)

// Vector is one interval's memory-access summary. Counts are exact
// integers stored as float64 (bounded by the interval length, far below
// float64's 2^53 exact range).
type Vector [NumFeatures]float64

// Total returns the sum of all feature counts.
func (v Vector) Total() float64 {
	var t float64
	for _, c := range v {
		t += c
	}
	return t
}

// Profiler accumulates MAVs over a run. Feed it what the BBV profiler is
// fed, in the same order — sim.CPU.RunBlocks batches via ObserveBlocks, or
// sim.CPU.RunTrace records via Observe — then call Finish once.
type Profiler struct {
	interval int64
	count    int64 // all retired instructions this interval

	current  Vector
	haveLast bool
	lastLine uint64

	// Per-interval distinct-line set (FeatUniqueLines). Bounded by the
	// number of memory ops in one interval; cleared, not remade, when an
	// interval closes.
	lines map[uint64]struct{}

	// Deterministic recency set for FeatReuseHits: the last reuseWindow
	// distinct lines, evicted FIFO via a ring buffer.
	recent  map[uint64]struct{}
	ring    [reuseWindow]uint64
	ringLen int
	ringPos int

	vectors []Vector
}

// NewProfiler returns a profiler with the given interval size in
// instructions. Use the same interval as the paired bbv.Profiler so the
// two vector streams stay index-aligned.
func NewProfiler(intervalSize int64) *Profiler {
	return &Profiler{
		interval: intervalSize,
		lines:    make(map[uint64]struct{}),
		recent:   make(map[uint64]struct{}, reuseWindow),
	}
}

// reset empties the per-interval state, keeping the sets' storage.
func (p *Profiler) reset() {
	p.current = Vector{}
	p.haveLast = false
	p.lastLine = 0
	clear(p.lines)
	clear(p.recent)
	p.ringLen = 0
	p.ringPos = 0
}

// ObserveBlocks counts one sim.CPU.RunBlocks batch: the instructions of its
// runs and, in order, its loads and stores. The batch may not cross an
// interval boundary — stop each RunBlocks call at the next one — and
// ObserveBlocks panics on one that does.
func (p *Profiler) ObserveBlocks(bs []sim.Block, refs []sim.MemRef) {
	for _, r := range refs {
		p.ref(r.Addr, r.Store)
	}
	var n int64
	for i := range bs {
		n += bs[i].N
	}
	p.advance(n)
}

// Observe processes one retired instruction. Non-memory instructions
// only advance the interval counter.
func (p *Profiler) Observe(r *sim.Retired) {
	switch r.Inst.Op.Class() {
	case rv64.ClassLoad:
		p.ref(r.MemAddr, false)
	case rv64.ClassStore:
		p.ref(r.MemAddr, true)
	}
	p.advance(1)
}

// ref counts one load or store of addr.
func (p *Profiler) ref(addr uint64, store bool) {
	if store {
		p.current[FeatStores]++
	} else {
		p.current[FeatLoads]++
	}
	p.access(addr >> lineShift)
}

// advance counts n retired instructions, closing the interval they reach.
func (p *Profiler) advance(n int64) {
	p.count += n
	if p.count >= p.interval {
		if p.count > p.interval {
			panic("mav: a batch crosses an interval boundary")
		}
		p.flush()
	}
}

func (p *Profiler) access(line uint64) {
	if _, seen := p.lines[line]; !seen {
		p.lines[line] = struct{}{}
		p.current[FeatUniqueLines]++
	}
	if p.haveLast {
		var stride uint64
		if line >= p.lastLine {
			stride = line - p.lastLine
		} else {
			stride = p.lastLine - line
		}
		switch {
		case stride == 0:
			p.current[FeatSameLine]++
		case stride == 1:
			p.current[FeatNearStride]++
		case stride <= 8:
			p.current[FeatSmallStride]++
		default:
			p.current[FeatLargeStride]++
		}
	}
	p.lastLine = line
	p.haveLast = true

	// Recency: a hit only counts; a miss inserts the line, evicting the
	// oldest insertion once the window is full.
	if _, hit := p.recent[line]; hit {
		p.current[FeatReuseHits]++
		return
	}
	if p.ringLen >= reuseWindow {
		delete(p.recent, p.ring[p.ringPos])
	} else {
		p.ringLen++
	}
	p.ring[p.ringPos] = line
	p.recent[line] = struct{}{}
	p.ringPos = (p.ringPos + 1) % reuseWindow
}

func (p *Profiler) flush() {
	p.vectors = append(p.vectors, p.current)
	p.count = 0
	p.reset()
}

// Finish closes the trailing partial interval (if it observed at least
// one instruction). Call after the traced run completes.
func (p *Profiler) Finish() {
	if p.count > 0 {
		p.flush()
	}
}

// Vectors returns one MAV per interval, in execution order.
func (p *Profiler) Vectors() []Vector { return p.vectors }

// IntervalSize returns the configured interval length.
func (p *Profiler) IntervalSize() int64 { return p.interval }
