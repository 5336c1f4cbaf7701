// Package workloads re-implements the paper's eleven MiBench/Embench
// benchmarks as RV64 assembly kernels (assembled by internal/asm) paired
// with bit-exact Go reference implementations. Each workload computes a
// checksum that the simulator must reproduce, which validates the assembler,
// the functional simulator and the kernel itself in one shot. Build only
// generates; the reference runs on the first Workload.Checksum call.
//
// Workloads take a Scale, which sets input sizes and iteration counts:
// ScaleTiny is for unit tests, ScaleDefault for the standard experiment
// sweep, and ScalePaper approaches the paper's Table II dynamic instruction
// counts (hundreds of millions; slow).
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/sim"
)

// Scale selects the workload input magnitude.
type Scale int

// Available scales.
const (
	ScaleTiny    Scale = iota // ~100K–1M dynamic instructions (unit tests)
	ScaleDefault              // ~2–20M dynamic instructions (experiments)
	ScalePaper                // the paper's order of magnitude (slow)
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleDefault:
		return "default"
	case ScalePaper:
		return "paper"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale is the inverse of String: it resolves "tiny", "default" or
// "paper" (the -scale flag values and the serving API's scale field).
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "default":
		return ScaleDefault, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("workloads: unknown scale %q (tiny|default|paper)", s)
}

// Segment is raw data the loader pokes into memory before the run (large
// generated inputs that would be wasteful as .dword directives).
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// ExtraBase is where generated input segments live; kernels reference it via
// li/la of absolute addresses passed through .equ constants.
const ExtraBase = 0x0200_0000

// Workload is one benchmark instance at a specific scale.
type Workload struct {
	Name     string
	Suite    string // "MiBench" or "Embench"
	Scale    Scale
	Source   string // assembly text
	Segments []Segment

	// IntervalSize is the BBV interval used for this workload at this
	// scale, mirroring Table II's per-benchmark interval column.
	//
	// Deprecated as a primary knob: this is the fallback consulted only
	// when the campaign's sampling spec leaves its Interval unset
	// (sampling.Spec.Interval == 0). Builders leave it zero and Build
	// resolves it to DefaultInterval(scale); set it explicitly only for
	// custom instances constructed outside Build.
	IntervalSize int64

	ref      func() uint64 // the Go reference run; see Checksum
	refOnce  sync.Once     // guards checksum
	checksum uint64

	assemble sync.Once // guards prog, progErr
	prog     *asm.Program
	progErr  error
}

// Checksum returns the value the program must leave in a0 at exit: the Go
// reference implementation's result. The reference runs on the first call
// (at most once per Workload, whichever goroutine asks first); Build runs
// none, so a rerun whose every stage is cached never pays for it. Only
// this package's builders attach a reference: on a Workload literal built
// elsewhere, Checksum panics.
func (w *Workload) Checksum() uint64 {
	w.refOnce.Do(func() { w.checksum = w.ref() })
	return w.checksum
}

// Program returns the assembled workload. It assembles Source once, on the
// first call; every caller (and every CPU it loads) shares the result, so
// the returned Program is read-only.
func (w *Workload) Program() (*asm.Program, error) {
	w.assemble.Do(func() {
		w.prog, w.progErr = asm.Assemble(w.Source)
		if w.progErr != nil {
			w.progErr = fmt.Errorf("workload %s: %w", w.Name, w.progErr)
		}
	})
	return w.prog, w.progErr
}

// NewCPU assembles, loads program and segments, and returns a ready CPU.
func (w *Workload) NewCPU() (*sim.CPU, error) {
	c := sim.New()
	if err := w.Load(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Load installs w's program and data segments in c, a CPU as sim.New or
// sim.CPU.Reset leaves it, and points it at the entry.
func (w *Workload) Load(c *sim.CPU) error {
	p, err := w.Program()
	if err != nil {
		return err
	}
	c.Load(p)
	for _, seg := range w.Segments {
		c.Mem.SetBytes(seg.Addr, seg.Bytes)
	}
	return nil
}

// builder constructs a workload for a given scale.
type builder func(Scale) (*Workload, error)

var registry = map[string]builder{}

func register(name string, b builder) {
	if _, dup := registry[name]; dup {
		panic("workloads: duplicate " + name)
	}
	registry[name] = b
}

// Names returns all workload names in the paper's Table II order.
func Names() []string {
	// Table II order; fall back to sorted for any extras.
	order := []string{"basicmath", "stringsearch", "fft", "ifft", "bitcount",
		"qsort", "dijkstra", "patricia", "matmult", "sha", "tarfind"}
	known := map[string]bool{}
	out := make([]string, 0, len(registry))
	for _, n := range order {
		if _, ok := registry[n]; ok {
			out = append(out, n)
			known[n] = true
		}
	}
	var rest []string
	for n := range registry {
		if !known[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// DefaultInterval returns the scale's default BBV interval, mirroring the
// 1M-instruction intervals of Table II at paper scale. This is the single
// default-resolution point that replaced the ten per-builder intervalFor
// call sites; campaigns override it through sampling.Spec.Interval.
func DefaultInterval(s Scale) int64 {
	switch s {
	case ScaleTiny:
		return 20_000
	case ScalePaper:
		return 1_000_000
	}
	return 100_000
}

// Build constructs the named workload at the given scale. A builder that
// leaves IntervalSize zero gets the scale's DefaultInterval.
func Build(name string, scale Scale) (*Workload, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	w, err := b(scale)
	if err != nil {
		return nil, err
	}
	if w.IntervalSize == 0 {
		w.IntervalSize = DefaultInterval(scale)
	}
	return w, nil
}

// lcg is the shared deterministic pseudo-random generator. Kernels that
// need random data implement the identical recurrence in assembly.
type lcg struct{ s uint64 }

const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (l *lcg) next() uint64 {
	l.s = l.s*lcgMul + lcgInc
	return l.s
}

// next32 returns the high 32 bits (better statistical quality than the low
// bits of an LCG).
func (l *lcg) next32() uint32 { return uint32(l.next() >> 32) }

// exitSeq is the common epilogue: checksum already in a0.
const exitSeq = `
	li   a7, 93
	ecall
`
