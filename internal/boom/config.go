// Package boom implements a cycle-level timing model of the SonicBOOM
// out-of-order core at the paper's three design points (MediumBOOM,
// LargeBOOM, MegaBOOM). It is trace-driven: the functional simulator
// supplies the committed instruction stream and this model imposes BOOM's
// pipeline structure — TAGE/GShare front end with BTB and RAS, fetch buffer,
// rename with per-branch free-list snapshots, a three-queue distributed
// scheduler with collapsing queues, merged register files with port limits,
// a load/store unit with store-to-load forwarding, and non-blocking L1
// caches with MSHRs. Every structure counts its activity (reads, writes,
// CAM searches, entry shifts, occupancy) so the power flow in
// internal/power can convert cycle behaviour into leakage/internal/
// switching power per component, exactly as the Verilator→Joules flow does
// in the paper.
package boom

import "fmt"

// PredictorKind selects the branch direction predictor.
type PredictorKind int

// Direction predictor choices. The paper's BOOM uses TAGE; GShare is
// implemented for the Takeaway-#7 ablation (TAGE ≈ 2.5× GShare power).
const (
	PredictorTAGE PredictorKind = iota
	PredictorGShare
)

func (p PredictorKind) String() string {
	if p == PredictorGShare {
		return "gshare"
	}
	return "tage"
}

// Config holds every microarchitectural parameter of a BOOM design point
// (the paper's Table I).
type Config struct {
	Name string

	// Front end.
	FetchWidth         int
	FetchBufferEntries int
	BTBEntries         int
	RASEntries         int
	TageTables         int
	TageEntries        int // entries per tagged table
	GShareEntries      int // used when Predictor == PredictorGShare
	Predictor          PredictorKind

	// Decode/rename/retire.
	DecodeWidth int
	RetireWidth int
	RobEntries  int
	IntPhysRegs int
	FpPhysRegs  int

	// Register file ports (Table I / §IV-B discussion).
	IntRFReadPorts  int
	IntRFWritePorts int
	FpRFReadPorts   int
	FpRFWritePorts  int

	// Distributed scheduler.
	IntIssueSlots int
	MemIssueSlots int
	FpIssueSlots  int
	IntIssueWidth int
	MemIssueWidth int // = number of memory execution units
	FpIssueWidth  int

	// LSU.
	LdqEntries int
	StqEntries int

	// L1 caches.
	DCacheKiB   int
	DCacheWays  int
	DCacheMSHRs int
	ICacheKiB   int
	ICacheWays  int
	LineBytes   int

	// Memory hierarchy behind the L1s (shared by all three design points in
	// the paper's SoC).
	L2KiB      int
	L2Ways     int
	L2Latency  int // additional cycles on an L1 miss that hits L2
	MemLatency int // additional cycles on an L2 miss (DRAM)

	// Clock, fixed at 500 MHz across configs per §IV-A.
	ClockMHz float64
}

// MediumBOOM is the 2-wide design point.
func MediumBOOM() Config {
	return Config{
		Name:               "MediumBOOM",
		FetchWidth:         4,
		FetchBufferEntries: 16,
		BTBEntries:         256,
		RASEntries:         8,
		TageTables:         6,
		TageEntries:        256,
		GShareEntries:      4096,
		Predictor:          PredictorTAGE,
		DecodeWidth:        2,
		RetireWidth:        2,
		RobEntries:         64,
		IntPhysRegs:        80,
		FpPhysRegs:         64,
		IntRFReadPorts:     6,
		IntRFWritePorts:    3,
		FpRFReadPorts:      3,
		FpRFWritePorts:     2,
		IntIssueSlots:      20,
		MemIssueSlots:      12,
		FpIssueSlots:       16,
		IntIssueWidth:      2,
		MemIssueWidth:      1,
		FpIssueWidth:       1,
		LdqEntries:         16,
		StqEntries:         16,
		DCacheKiB:          16,
		DCacheWays:         4,
		DCacheMSHRs:        2,
		ICacheKiB:          16,
		ICacheWays:         4,
		LineBytes:          64,
		L2KiB:              1024,
		L2Ways:             8,
		L2Latency:          14,
		MemLatency:         80,
		ClockMHz:           500,
	}
}

// LargeBOOM is the 3-wide design point.
func LargeBOOM() Config {
	c := MediumBOOM()
	c.Name = "LargeBOOM"
	c.FetchWidth = 8
	c.FetchBufferEntries = 24
	c.BTBEntries = 512
	c.RASEntries = 16
	c.TageEntries = 512
	c.GShareEntries = 8192
	c.DecodeWidth = 3
	c.RetireWidth = 3
	c.RobEntries = 96
	c.IntPhysRegs = 100
	c.FpPhysRegs = 96
	c.IntRFReadPorts = 8
	c.IntRFWritePorts = 4
	c.FpRFReadPorts = 4
	c.FpRFWritePorts = 2
	c.IntIssueSlots = 28
	c.MemIssueSlots = 16
	c.FpIssueSlots = 24
	c.IntIssueWidth = 3
	c.MemIssueWidth = 1
	c.FpIssueWidth = 1
	c.LdqEntries = 24
	c.StqEntries = 24
	c.DCacheKiB = 32
	c.DCacheWays = 8
	c.DCacheMSHRs = 4
	c.ICacheKiB = 32
	c.ICacheWays = 8
	return c
}

// MegaBOOM is the 4-wide design point. Per the paper: 40 integer issue
// slots, 12/6 integer RF ports, two memory execution units and twice
// LargeBOOM's MSHRs.
func MegaBOOM() Config {
	c := LargeBOOM()
	c.Name = "MegaBOOM"
	c.FetchWidth = 8
	c.FetchBufferEntries = 32
	c.DecodeWidth = 4
	c.RetireWidth = 4
	c.RobEntries = 128
	c.IntPhysRegs = 128
	c.FpPhysRegs = 128
	c.IntRFReadPorts = 12
	c.IntRFWritePorts = 6
	c.FpRFReadPorts = 6
	c.FpRFWritePorts = 3
	c.IntIssueSlots = 40
	c.MemIssueSlots = 24
	c.FpIssueSlots = 32
	c.IntIssueWidth = 4
	c.MemIssueWidth = 2
	c.FpIssueWidth = 2
	c.LdqEntries = 32
	c.StqEntries = 32
	c.DCacheMSHRs = 8
	return c
}

// registry holds one canonical instance of each design point, built once.
// Lookups copy out of it and never hand back anything that can reach
// these instances, so a caller mutating its copy (boomflow's -predictor
// ablation flips Predictor, tests tweak RobEntries) cannot poison a later
// sweep that resolves the same name.
var registry = []Config{MediumBOOM(), LargeBOOM(), MegaBOOM()}

// Configs returns the paper's three design points in Table I order. The
// slice and its elements are the caller's to mutate.
func Configs() []Config {
	out := make([]Config, len(registry))
	copy(out, registry)
	return out
}

// ConfigByName resolves "medium"/"large"/"mega" (or the full names) to a
// defensive copy of the canonical design point.
func ConfigByName(name string) (Config, error) {
	for i := range registry {
		c := registry[i] // copy; Config is scalar-only, so this is deep
		switch name {
		case c.Name, shortName(c.Name):
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("boom: unknown config %q", name)
}

// shortName maps "MediumBOOM" → "medium" etc.
func shortName(full string) string {
	switch full {
	case "MediumBOOM":
		return "medium"
	case "LargeBOOM":
		return "large"
	case "MegaBOOM":
		return "mega"
	}
	return full
}

// powerOfTwo reports whether n is a positive power of two — the shape
// every indexed hardware table (cache sets and ways, predictor tables)
// must have, since the index is a bit-field of the address or history.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// cacheSetsOK checks one cache's geometry: power-of-two ways, the
// capacity divisible into them, and a power-of-two set count (a
// non-power-of-two set count has no index function).
func cacheSetsOK(kib, ways, line int) bool {
	if kib <= 0 || line <= 0 || !powerOfTwo(ways) {
		return false
	}
	lines := kib * 1024 / line
	return lines%ways == 0 && powerOfTwo(lines/ways)
}

// Validate checks structural invariants. Parametric expansion
// (internal/dse) runs every generated design point through here, so an
// invalid corner of a sweep — a width inversion, a non-power-of-two cache
// geometry, a zero-depth queue — fails loudly at expansion time instead
// of producing a design point the timing model cannot mean anything for.
func (c *Config) Validate() error {
	check := func(ok bool, what string) error {
		if !ok {
			return fmt.Errorf("boom: %s: invalid %s", c.Name, what)
		}
		return nil
	}
	for _, e := range []error{
		check(c.FetchWidth > 0 && c.DecodeWidth > 0 && c.RetireWidth > 0, "widths"),
		check(c.DecodeWidth <= c.FetchWidth, "decode vs fetch width"),
		check(c.RetireWidth >= c.DecodeWidth, "retire vs decode width"),
		check(c.FetchBufferEntries >= c.FetchWidth, "fetch buffer"),
		check(c.BTBEntries > 0 && c.RASEntries > 0 &&
			c.TageTables > 0 && c.TageEntries > 0 && c.GShareEntries > 0, "predictor tables"),
		check(c.RobEntries >= 2*c.DecodeWidth, "ROB size"),
		check(c.IntPhysRegs > 32 && c.FpPhysRegs > 32, "physical registers"),
		check(c.IntIssueSlots > 0 && c.MemIssueSlots > 0 && c.FpIssueSlots > 0, "issue slots"),
		check(c.IntIssueWidth > 0 && c.MemIssueWidth > 0 && c.FpIssueWidth > 0, "issue widths"),
		check(c.IntIssueWidth <= c.IntIssueSlots && c.MemIssueWidth <= c.MemIssueSlots &&
			c.FpIssueWidth <= c.FpIssueSlots, "issue width vs slots"),
		check(c.IntRFReadPorts >= 2*c.IntIssueWidth, "int RF read ports"),
		check(c.IntRFWritePorts > c.IntIssueWidth, "int RF write ports"),
		check(c.LdqEntries > 0 && c.StqEntries > 0, "LSU queues"),
		check(c.DCacheKiB > 0 && c.DCacheWays > 0 && c.LineBytes > 0, "D-cache geometry"),
		check(cacheSetsOK(c.DCacheKiB, c.DCacheWays, c.LineBytes), "D-cache sets"),
		check(cacheSetsOK(c.ICacheKiB, c.ICacheWays, c.LineBytes), "I-cache sets"),
		check(c.DCacheMSHRs > 0, "MSHRs"),
		check(c.L2KiB > 0 && c.L2Ways > 0 && cacheSetsOK(c.L2KiB, c.L2Ways, c.LineBytes), "L2 geometry"),
		check(c.L2Latency > 0 && c.MemLatency > 0, "memory latencies"),
		// A completion is queued in slot (cycle+latency)%ringSize: a load
		// that misses to DRAM must land inside the ring or it would alias
		// a slot ~ringSize cycles early and complete there.
		check(latLoadHit+c.L2Latency+c.MemLatency < ringSize, "memory latencies exceed the event horizon"),
		check(c.ClockMHz > 0, "clock"),
	} {
		if e != nil {
			return e
		}
	}
	return nil
}
