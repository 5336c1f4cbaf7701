// Package sim implements the functional RV64IMD simulator that plays the
// role Spike plays in the paper's flow: it provides golden architectural
// execution for basic-block profiling, creates the state that SimPoint
// checkpoints capture, and feeds the committed instruction stream to the
// BOOM timing model.
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

// Retired describes one committed instruction, in the form the BBV profiler
// and the timing model consume.
type Retired struct {
	PC      uint64
	NextPC  uint64
	Inst    rv64.Inst
	Taken   bool   // branches: condition outcome
	MemAddr uint64 // loads/stores: effective address
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

// traceBatch is how many instructions RunTrace executes between deliveries
// to its callback.
const traceBatch = 64

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

	batch [traceBatch]Retired // RunTrace's delivery buffer

	metrics *metrics.Registry // optional; nil disables instrumentation
}

// SetMetrics attaches an optional metrics registry: every Run/RunTrace
// records retired instructions, wall time, and functional-simulation
// throughput (KIPS). A nil registry (the default) disables instrumentation.
func (c *CPU) SetMetrics(reg *metrics.Registry) { c.metrics = reg }

// recordRun publishes one Run/RunTrace call's throughput.
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
	c := &CPU{Mem: mem.New()}
	c.X[rv64.RegSP] = DefaultStackTop
	return c
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
	n, err := c.execute(one[:], 1)
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
	n, err := c.execute(recs, int64(len(recs)))
	return int(n), err
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
// record the CPU itself may already be up to traceBatch-1 instructions
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
		k, err = c.execute(c.batch[:], max-n)
		for i := range c.batch[:k] {
			fn(&c.batch[i])
		}
		n += k
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
