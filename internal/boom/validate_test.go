package boom

import (
	"strings"
	"testing"
)

// TestValidateRejections drives every structural invariant: each case
// breaks exactly one field (or field relation) of a known-good config and
// names the check that must fire. The error text carries the check name,
// so a failed parametric expansion (internal/dse) tells the user which
// knob produced the impossible corner.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		field string
		mut   func(c *Config)
		want  string // the "invalid <what>" fragment
	}{
		{"FetchWidth", func(c *Config) { c.FetchWidth = 0 }, "widths"},
		{"DecodeWidth", func(c *Config) { c.DecodeWidth = 0 }, "widths"},
		{"RetireWidth", func(c *Config) { c.RetireWidth = 0 }, "widths"},
		{"DecodeWidth > FetchWidth", func(c *Config) { c.DecodeWidth = c.FetchWidth + 1 }, "decode vs fetch width"},
		{"RetireWidth < DecodeWidth", func(c *Config) { c.RetireWidth = c.DecodeWidth - 1 }, "retire vs decode width"},
		{"FetchBufferEntries zero", func(c *Config) { c.FetchBufferEntries = 0 }, "fetch buffer"},
		{"FetchBufferEntries < FetchWidth", func(c *Config) { c.FetchBufferEntries = c.FetchWidth - 1 }, "fetch buffer"},
		{"BTBEntries", func(c *Config) { c.BTBEntries = 0 }, "predictor tables"},
		{"RASEntries", func(c *Config) { c.RASEntries = 0 }, "predictor tables"},
		{"TageTables", func(c *Config) { c.TageTables = 0 }, "predictor tables"},
		{"TageEntries", func(c *Config) { c.TageEntries = 0 }, "predictor tables"},
		{"GShareEntries", func(c *Config) { c.GShareEntries = 0 }, "predictor tables"},
		{"RobEntries", func(c *Config) { c.RobEntries = 2*c.DecodeWidth - 1 }, "ROB size"},
		{"IntPhysRegs", func(c *Config) { c.IntPhysRegs = 32 }, "physical registers"},
		{"FpPhysRegs", func(c *Config) { c.FpPhysRegs = 32 }, "physical registers"},
		{"IntIssueSlots", func(c *Config) { c.IntIssueSlots = 0 }, "issue slots"},
		{"MemIssueSlots", func(c *Config) { c.MemIssueSlots = 0 }, "issue slots"},
		{"FpIssueSlots", func(c *Config) { c.FpIssueSlots = 0 }, "issue slots"},
		{"IntIssueWidth zero", func(c *Config) { c.IntIssueWidth = 0 }, "issue widths"},
		{"MemIssueWidth zero", func(c *Config) { c.MemIssueWidth = 0 }, "issue widths"},
		{"FpIssueWidth zero", func(c *Config) { c.FpIssueWidth = 0 }, "issue widths"},
		{"IntIssueWidth > slots", func(c *Config) {
			c.IntIssueWidth = c.IntIssueSlots + 1
			c.IntRFReadPorts = 2 * c.IntIssueWidth
			c.IntRFWritePorts = c.IntIssueWidth + 1
		}, "issue width vs slots"},
		{"MemIssueWidth > slots", func(c *Config) { c.MemIssueWidth = c.MemIssueSlots + 1 }, "issue width vs slots"},
		{"FpIssueWidth > slots", func(c *Config) { c.FpIssueWidth = c.FpIssueSlots + 1 }, "issue width vs slots"},
		{"IntRFReadPorts", func(c *Config) { c.IntRFReadPorts = 2*c.IntIssueWidth - 1 }, "int RF read ports"},
		{"IntRFWritePorts", func(c *Config) { c.IntRFWritePorts = c.IntIssueWidth }, "int RF write ports"},
		{"LdqEntries", func(c *Config) { c.LdqEntries = 0 }, "LSU queues"},
		{"StqEntries", func(c *Config) { c.StqEntries = 0 }, "LSU queues"},
		{"DCacheKiB", func(c *Config) { c.DCacheKiB = 0 }, "D-cache geometry"},
		{"DCacheWays zero", func(c *Config) { c.DCacheWays = 0 }, "D-cache geometry"},
		{"LineBytes", func(c *Config) { c.LineBytes = 0 }, "D-cache geometry"},
		{"DCacheWays non-power-of-two", func(c *Config) { c.DCacheWays = 3 }, "D-cache sets"},
		{"DCache sets non-power-of-two", func(c *Config) { c.DCacheKiB = 24 }, "D-cache sets"},
		{"ICacheWays non-power-of-two", func(c *Config) { c.ICacheWays = 6 }, "I-cache sets"},
		{"ICache sets non-power-of-two", func(c *Config) { c.ICacheKiB = 48 }, "I-cache sets"},
		{"DCacheMSHRs", func(c *Config) { c.DCacheMSHRs = 0 }, "MSHRs"},
		{"L2KiB", func(c *Config) { c.L2KiB = 0 }, "L2 geometry"},
		{"L2Ways non-power-of-two", func(c *Config) { c.L2Ways = 12 }, "L2 geometry"},
		{"L2 sets non-power-of-two", func(c *Config) { c.L2KiB = 768 }, "L2 geometry"},
		{"L2Latency", func(c *Config) { c.L2Latency = 0 }, "memory latencies"},
		{"MemLatency", func(c *Config) { c.MemLatency = 0 }, "memory latencies"},
		{"ClockMHz", func(c *Config) { c.ClockMHz = 0 }, "clock"},
		{"miss latency = event ring", func(c *Config) { c.MemLatency = ringSize - latLoadHit - c.L2Latency }, "memory latencies exceed the event horizon"},
		{"L2 latency alone past the ring", func(c *Config) { c.L2Latency = 4 * ringSize }, "memory latencies exceed the event horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := MediumBOOM()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a config with bad %s", tc.field)
			}
			if !strings.Contains(err.Error(), "invalid "+tc.want) {
				t.Fatalf("error %q does not name the %q check", err, tc.want)
			}
		})
	}
}

// TestValidateEventHorizonBoundary: the longest load latency may be
// ringSize-1 (511; the 512 side is a TestValidateRejections row), and at
// that boundary a DRAM miss is still timed in full: a chain of loads, each
// address depending on the previous load's (zero) data, through cold lines
// pays the whole latency per hop, not a ring-aliased short one.
func TestValidateEventHorizonBoundary(t *testing.T) {
	cfg := MediumBOOM()
	cfg.MemLatency = ringSize - 1 - latLoadHit - cfg.L2Latency
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a %d-cycle miss fits the %d-slot ring: %v", ringSize-1, ringSize, err)
	}
	const hops = 64
	st := runAsm(t, `
	.text
	li t0, 0x2000000
	li t2, 64
chase:
	ld t3, 0(t0)
	add t0, t0, t3
	addi t0, t0, 64
	addi t2, t2, -1
	bnez t2, chase
`, cfg)
	if st.L2Misses < hops {
		t.Fatalf("the chase missed to DRAM %d times, want %d", st.L2Misses, hops)
	}
	if min := uint64(hops * (ringSize - 1)); st.Cycles < min {
		t.Errorf("%d dependent DRAM misses took %d cycles, less than %d: completions alias the event ring", hops, st.Cycles, min)
	}
}

func TestPowerOfTwo(t *testing.T) {
	for n, want := range map[int]bool{-4: false, 0: false, 1: true, 2: true, 3: false, 64: true, 96: false, 4096: true} {
		if got := powerOfTwo(n); got != want {
			t.Errorf("powerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}
