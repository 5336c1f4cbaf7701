// Package sim implements the functional RV64IMD simulator that plays the
// role Spike plays in the paper's flow: it provides golden architectural
// execution for basic-block profiling, creates the state that SimPoint
// checkpoints capture, and feeds the committed instruction stream to the
// BOOM timing model.
//
// One executor serves every entry point. Step, Run, Fill and RunTrace
// retire instructions one record each (or none, for Run); RunBlocks, the
// profiling entry point, reports one Block per basic-block run and, when
// asked, each load's and store's MemRef — what a basic-block or memory
// access vector counts, at close to Run's speed.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rv64"
)

// DefaultStackTop is where the stack pointer starts. It sits well above the
// default text/data bases used by the assembler.
const DefaultStackTop = 0x0800_0000

// Retired describes one committed instruction, in the form the timing
// model consumes.
type Retired struct {
	PC      uint64
	NextPC  uint64
	Inst    rv64.Inst
	Taken   bool   // branches: condition outcome
	MemAddr uint64 // loads/stores: effective address
}

// Block is one run of instructions retired back to back inside one basic
// block, as RunBlocks reports them. A run ends at a control transfer — a
// branch, taken or not, or a jump — with End set, and the next run starts
// a new basic block. A run also ends where its RunBlocks call stops (its
// max, a halt or a fault) with End clear: the next call's first run
// continues the same basic block.
type Block struct {
	PC   uint64 // the run's first instruction
	N    int64  // instructions retired, at least one
	Text int32  // PC's index in the text window, or -1 outside it
	End  bool   // the run's last instruction transfers control
}

// MemRef is one retired load's or store's effective address.
type MemRef struct {
	Addr  uint64
	Store bool
}

// ErrBreakpoint is returned by Run when an EBREAK retires.
var ErrBreakpoint = fmt.Errorf("sim: ebreak")

// ErrTextWrite is returned (wrapped, with the PC and address) when a store
// overlaps the text window. Text is write-protected: the window is fetched
// from a predecoded image shared between CPUs, so a store there could not
// take effect and is refused instead.
var ErrTextWrite = errors.New("sim: store into the text window")

// ErrMisalignedFetch is returned (wrapped, with the PC) when the PC is not
// a multiple of four; the model has no compressed instructions.
var ErrMisalignedFetch = errors.New("sim: misaligned instruction fetch")

// TraceBatch is how many instructions RunTrace executes between deliveries
// to its callback, and Batch at most at a time.
const TraceBatch = 64

// blockBatch and refBatch bound how many runs and memory references
// RunBlocks delivers to its callback at a time.
const (
	blockBatch = 256
	refBatch   = 512
)

// sink is where execute writes what retires: one record per instruction
// into recs or, with bb set, runs and memory references into bb.
type sink struct {
	recs []Retired
	bb   *blockBuf
}

// blockBuf is RunBlocks' delivery buffer, allocated on a CPU's first
// RunBlocks call (refs on its first call asking for addresses): a CPU that
// never profiles does not carry it.
type blockBuf struct {
	blocks   [blockBatch]Block
	refs     []MemRef // refBatch long once allocated
	nb, nr   int      // entries the last execute call wrote
	start    uint64   // the open run's first PC
	startN   int64    // execute's instruction count where the open run began (≤ 0: an earlier call)
	open     int64    // instructions of the open run the calls so far retired
	wantRefs bool     // record loads' and stores' addresses
}

// CPU is the architectural state plus execution machinery.
type CPU struct {
	PC      uint64
	X       [32]uint64
	F       [32]uint64 // raw IEEE-754 bits
	Mem     *mem.Memory
	InstRet uint64 // retired instruction counter
	Halted  bool
	Exit    int64 // exit code once Halted

	Stdout []byte // bytes written via the write syscall

	// The text window: text[i] is the instruction at textBase+4i. It is
	// the loaded program's predecoded image (asm.Program.Insts), shared
	// with every other CPU running that program and never written.
	textBase uint64
	text     []rv64.Inst
	outside  rv64.Inst // decode slot for a fetch outside the window

	batch [TraceBatch]Retired // RunTrace's and Batch's delivery buffer
	blk   *blockBuf           // RunBlocks' delivery buffer; nil until first used

	metrics *metrics.Registry // optional; nil disables instrumentation
}

// SetMetrics attaches an optional metrics registry: every Run, RunTrace
// and RunBlocks call records retired instructions, wall time, and
// functional-simulation throughput (KIPS). A nil registry (the default)
// disables instrumentation.
func (c *CPU) SetMetrics(reg *metrics.Registry) { c.metrics = reg }

// recordRun publishes one Run/RunTrace/RunBlocks call's throughput.
func (c *CPU) recordRun(t0 time.Time, n int64) {
	wall := time.Since(t0)
	c.metrics.Counter("sim.insts").Add(n)
	c.metrics.Counter("sim.wall_ns").Add(wall.Nanoseconds())
	if s := wall.Seconds(); s > 0 && n > 0 {
		c.metrics.Histogram("sim.kips").Observe(int64(float64(n) / s / 1000))
	}
}

// New returns a CPU with fresh memory and the stack pointer initialized.
func New() *CPU {
	c := new(CPU)
	c.Reset()
	return c
}

// Reset re-arms c as New returns a CPU: registers, PC and counters zero,
// the stack pointer at DefaultStackTop, not halted, no exit code, no
// output, no text window and an empty memory. It keeps what c allocated:
// its memory's map, TLB and page frames (mem.Memory.Reset), its output
// buffer and its delivery buffers, so a CPU re-armed per run allocates
// none of them again. A metrics registry stays attached.
func (c *CPU) Reset() {
	c.PC, c.X, c.F, c.InstRet = 0, [32]uint64{}, [32]uint64{}, 0
	c.X[rv64.RegSP] = DefaultStackTop
	c.Halted, c.Exit, c.Stdout = false, 0, c.Stdout[:0]
	c.textBase, c.text = 0, nil
	if c.Mem == nil {
		c.Mem = mem.New()
	} else {
		c.Mem.Reset(nil)
	}
}

// Load installs an assembled program: text and data are copied into memory,
// the PC is set to the entry point and the text window is attached.
func (c *CPU) Load(p *asm.Program) {
	c.Mem.SetBytes(p.TextAddr, p.TextBytes())
	if len(p.Data) > 0 {
		c.Mem.SetBytes(p.DataAddr, p.Data)
	}
	c.PC = p.Entry
	c.AttachText(p)
}

// AttachText points the text window at p's predecoded image and touches
// nothing else. It is Load for a CPU whose memory and registers come from
// a checkpoint: copying the program in would only be thrown away by the
// restore. Fetches outside the window decode from memory.
func (c *CPU) AttachText(p *asm.Program) {
	c.textBase = p.TextAddr
	c.text = p.Insts
}

// Step executes one instruction. If r is non-nil it is filled with the
// retirement record. Stepping a halted CPU is a no-op returning nil.
func (c *CPU) Step(r *Retired) error {
	if r == nil {
		_, err := c.execute(nil, 1)
		return err
	}
	var one [1]Retired
	n, err := c.execute(&sink{recs: one[:]}, 1)
	if n == 1 {
		*r = one[0]
	}
	return err
}

// Fill executes up to len(recs) instructions, writing one retirement
// record each, and returns how many retired. It stops early at a halt or
// at a faulting instruction, whose error it returns with the records
// before it.
func (c *CPU) Fill(recs []Retired) (int, error) {
	n, err := c.execute(&sink{recs: recs}, int64(len(recs)))
	return int(n), err
}

// Batch executes up to TraceBatch instructions into the CPU's own delivery
// buffer and returns their records, which stay valid until the next Batch
// or RunTrace call. It stops early like Fill.
func (c *CPU) Batch() ([]Retired, error) {
	n, err := c.Fill(c.batch[:])
	return c.batch[:n], err
}

// Run executes up to max instructions (or until halt when max < 0) and
// returns the number retired.
func (c *CPU) Run(max int64) (n int64, err error) {
	if c.metrics != nil {
		t0 := time.Now()
		defer func() { c.recordRun(t0, n) }()
	}
	if max < 0 {
		max = math.MaxInt64
	}
	return c.execute(nil, max)
}

// RunTrace is Run with a callback per retired instruction. The callback
// receives a reused Retired record; it must not retain the pointer.
// Instructions execute a batch at a time, so when the callback sees a
// record the CPU itself may already be up to TraceBatch-1 instructions
// further on.
func (c *CPU) RunTrace(max int64, fn func(*Retired)) (n int64, err error) {
	if c.metrics != nil {
		t0 := time.Now()
		defer func() { c.recordRun(t0, n) }()
	}
	if max < 0 {
		max = math.MaxInt64
	}
	for !c.Halted && n < max && err == nil {
		var k int64
		k, err = c.execute(&sink{recs: c.batch[:]}, max-n)
		for i := range c.batch[:k] {
			fn(&c.batch[i])
		}
		n += k
	}
	return n, err
}

// RunBlocks is Run reporting basic-block runs instead of instructions, the
// record a BBV needs: fn receives, a bounded batch at a time, the runs the
// instructions retired in and — only when refs is set — every load's and
// store's address, in retirement order. A run ends at a control transfer or
// where the call stops (its max, a halt or a fault), never elsewhere: a
// batch boundary inside a basic block holds the open run back to a later
// batch, so its instructions' addresses can arrive a batch ahead of it. No
// run crosses the call's max, so a caller that stops each call at an
// interval boundary sees every run on one side of it. fn must not retain
// the slices.
func (c *CPU) RunBlocks(max int64, refs bool, fn func([]Block, []MemRef)) (n int64, err error) {
	if c.metrics != nil {
		t0 := time.Now()
		defer func() { c.recordRun(t0, n) }()
	}
	if max < 0 {
		max = math.MaxInt64
	}
	if c.blk == nil {
		c.blk = new(blockBuf)
	}
	b := c.blk
	if refs && b.refs == nil {
		b.refs = make([]MemRef, refBatch)
	}
	b.wantRefs, b.open = refs, 0
	for !c.Halted && n < max && err == nil {
		var k int64
		k, err = c.execute(&sink{bb: b}, max-n)
		n += k
		if b.open > 0 && (c.Halted || n == max || err != nil) {
			// The call stops here, and so does its open run. The buffer
			// has room: a full one stopped execute right after a close.
			b.blocks[b.nb] = Block{PC: b.start, N: b.open, Text: textIndex(b.start, c.textBase, 4*uint64(len(c.text)))}
			b.nb++
			b.open = 0
		}
		if b.nb > 0 || b.nr > 0 {
			fn(b.blocks[:b.nb], b.refs[:b.nr])
		}
	}
	return n, err
}

// syscall implements the minimal Linux-flavored ABI the workloads use:
// a7=93 exit(a0), a7=64 write(fd=a0, buf=a1, len=a2).
func (c *CPU) syscall() error {
	switch c.X[rv64.RegA7] {
	case 93: // exit
		c.Halted = true
		c.Exit = int64(c.X[rv64.RegA0])
		return nil
	case 64: // write
		n := c.X[rv64.RegA2]
		if n > 1<<20 {
			return fmt.Errorf("sim: write syscall of %d bytes", n)
		}
		c.Stdout = append(c.Stdout, c.Mem.ReadBytes(c.X[rv64.RegA1], int(n))...)
		c.X[rv64.RegA0] = n
		return nil
	}
	return fmt.Errorf("sim: unsupported syscall %d at pc=%#x", c.X[rv64.RegA7], c.PC)
}
