package boom

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// mustNew builds a core, failing the test on an invalid config.
func mustNew(t testing.TB, cfg Config) *Core {
	t.Helper()
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// mustRun drives the core, failing the test on a model error (deadlock).
func mustRun(t testing.TB, core *Core, src Source, maxRetire uint64) uint64 {
	t.Helper()
	n, err := core.RunSource(src, maxRetire)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// cpuTrace is a loaded CPU's trace, read a sim.CPU.Batch at a time; a
// functional fault fails the test.
type cpuTrace struct {
	t   testing.TB
	cpu *sim.CPU
}

func (s cpuTrace) Batch() []sim.Retired {
	recs, err := s.cpu.Batch()
	if err != nil {
		s.t.Fatalf("functional step: %v", err)
	}
	return recs
}

// traceFrom is the trace of a loaded CPU.
func traceFrom(t testing.TB, cpu *sim.CPU) Source { return cpuTrace{t, cpu} }

// runWorkload drives a tiny-scale workload through the timing model.
func runWorkload(t testing.TB, name string, cfg Config) *Stats {
	t.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	core := mustNew(t, cfg)
	mustRun(t, core, traceFrom(t, cpu), math.MaxUint64)
	return core.Stats()
}

// runAsm drives a custom assembly program through the timing model.
func runAsm(t *testing.T, src string, cfg Config) *Stats {
	t.Helper()
	p, err := asm.Assemble(src + "\n\tli a7, 93\n\tecall\n")
	if err != nil {
		t.Fatal(err)
	}
	cpu := sim.New()
	cpu.Load(p)
	core := mustNew(t, cfg)
	mustRun(t, core, traceFrom(t, cpu), math.MaxUint64)
	return core.Stats()
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range Configs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if MegaBOOM().IntIssueSlots != 40 {
		t.Error("MegaBOOM must have 40 integer issue slots (Fig. 8)")
	}
	if MediumBOOM().BTBEntries*2 != LargeBOOM().BTBEntries {
		t.Error("MediumBOOM BTB must be half of LargeBOOM's")
	}
	if MegaBOOM().DCacheMSHRs != 2*LargeBOOM().DCacheMSHRs {
		t.Error("MegaBOOM must double LargeBOOM's MSHRs")
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Error("ConfigByName must reject unknown names")
	}
}

func TestRetiredCountMatchesFunctional(t *testing.T) {
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	// Functional instruction count.
	cpu, _ := w.NewCPU()
	var want uint64
	for !cpu.Halted {
		if err := cpu.Step(nil); err != nil {
			t.Fatal(err)
		}
		want++
	}
	st := runWorkload(t, "bitcount", MediumBOOM())
	if st.Insts != want {
		t.Fatalf("timing retired %d, functional %d", st.Insts, want)
	}
}

// Independent adds should sustain close to the machine width; a serial
// dependency chain should sustain roughly 1 IPC.
func TestILPExtremes(t *testing.T) {
	parallel := `
	.text
	li  s0, 20000
loop:
	addi t1, t1, 1
	addi t2, t2, 1
	addi t3, t3, 1
	addi t4, t4, 1
	addi t5, t5, 1
	addi t6, t6, 1
	addi s0, s0, -1
	bnez s0, loop
`
	serial := `
	.text
	li  s0, 20000
loop:
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi s0, s0, -1
	bnez s0, loop
`
	for _, cfg := range Configs() {
		ps := runAsm(t, parallel, cfg)
		ss := runAsm(t, serial, cfg)
		if ps.IPC() < float64(cfg.DecodeWidth)*0.75 {
			t.Errorf("%s: parallel IPC %.2f too low for width %d", cfg.Name, ps.IPC(), cfg.DecodeWidth)
		}
		if ss.IPC() > 1.5 {
			t.Errorf("%s: serial IPC %.2f should be near 1", cfg.Name, ss.IPC())
		}
		if ps.IPC() <= ss.IPC() {
			t.Errorf("%s: parallel (%.2f) must beat serial (%.2f)", cfg.Name, ps.IPC(), ss.IPC())
		}
	}
}

func TestIPCScalesWithWidth(t *testing.T) {
	ipcs := map[string]float64{}
	for _, cfg := range Configs() {
		ipcs[cfg.Name] = runWorkload(t, "sha", cfg).IPC()
	}
	if !(ipcs["MegaBOOM"] > ipcs["LargeBOOM"] && ipcs["LargeBOOM"] > ipcs["MediumBOOM"]) {
		t.Errorf("sha IPC ordering wrong: %+v", ipcs)
	}
	if ipcs["MediumBOOM"] > 2.0 {
		t.Errorf("MediumBOOM IPC %.2f exceeds its width", ipcs["MediumBOOM"])
	}
}

func TestShaFastestTarfindSlowest(t *testing.T) {
	cfg := MegaBOOM()
	sha := runWorkload(t, "sha", cfg).IPC()
	tar := runWorkload(t, "tarfind", cfg).IPC()
	dijkstra := runWorkload(t, "dijkstra", cfg).IPC()
	if sha <= tar || sha <= dijkstra {
		t.Errorf("sha IPC %.2f must top tarfind %.2f and dijkstra %.2f", sha, tar, dijkstra)
	}
	if tar > 1.2 {
		t.Errorf("tarfind IPC %.2f suspiciously high", tar)
	}
}

// Fig. 8 behaviour: Dijkstra keeps the integer issue queue busy deep into
// the 40 MegaBOOM slots; Sha concentrates on the first dozen.
func TestIssueQueueOccupancyShape(t *testing.T) {
	cfg := MegaBOOM()
	dij := runWorkload(t, "dijkstra", cfg)
	sha := runWorkload(t, "sha", cfg)
	dijOcc := float64(dij.Comp[CompIntIssue].Occupancy) / float64(dij.Cycles)
	shaOcc := float64(sha.Comp[CompIntIssue].Occupancy) / float64(sha.Cycles)
	if dijOcc <= shaOcc {
		t.Errorf("dijkstra int-IQ occupancy %.1f must exceed sha %.1f", dijOcc, shaOcc)
	}
	// High slots: dijkstra must use slot 30 far more than sha, and sha's
	// backlog must stay concentrated (slot 20+ nearly idle).
	slot := 30
	dijHigh := float64(dij.IntIssueSlotCycles[slot]) / float64(dij.Cycles)
	shaHigh := float64(sha.IntIssueSlotCycles[slot]) / float64(sha.Cycles)
	if dijHigh < 4*shaHigh {
		t.Errorf("slot %d utilization: dijkstra %.3f vs sha %.3f", slot, dijHigh, shaHigh)
	}
	if shaMid := float64(sha.IntIssueSlotCycles[20]) / float64(sha.Cycles); shaMid > 0.1 {
		t.Errorf("sha slot 20 utilization %.3f should be near idle", shaMid)
	}
}

func TestBranchPredictionQuality(t *testing.T) {
	// A long counted loop is nearly perfectly predictable.
	loop := `
	.text
	li  s0, 50000
loop:
	addi s0, s0, -1
	bnez s0, loop
`
	st := runAsm(t, loop, MediumBOOM())
	if st.MispredictRate() > 0.01 {
		t.Errorf("counted loop mispredict rate %.4f too high", st.MispredictRate())
	}
	// tarfind's data-dependent compares must mispredict much more.
	tar := runWorkload(t, "tarfind", MediumBOOM())
	if tar.MispredictRate() < 0.02 {
		t.Errorf("tarfind mispredict rate %.4f suspiciously low", tar.MispredictRate())
	}
}

func TestDCacheSensitivity(t *testing.T) {
	// Cyclic streaming over 24 KiB: thrashes MediumBOOM's 16 KiB L1D but
	// becomes resident in MegaBOOM's 32 KiB after the first pass.
	stream := `
	.text
	li  s0, 40             # passes
outer:
	li  t0, 0x2000000
	li  t1, 384            # 384 × 64 B lines = 24 KiB
inner:
	ld  t2, 0(t0)
	addi t0, t0, 64
	addi t1, t1, -1
	bnez t1, inner
	addi s0, s0, -1
	bnez s0, outer
`
	med := runAsm(t, stream, MediumBOOM())
	mega := runAsm(t, stream, MegaBOOM())
	medRate := float64(med.DCacheMisses) / float64(med.DCacheHits+med.DCacheMisses)
	megaRate := float64(mega.DCacheMisses) / float64(mega.DCacheHits+mega.DCacheMisses)
	if medRate < 0.5 {
		t.Errorf("24 KiB cyclic stream should thrash a 16 KiB LRU L1D; miss rate %.3f", medRate)
	}
	if megaRate > 0.2 {
		t.Errorf("24 KiB stream should be resident in a 32 KiB L1D; miss rate %.3f", megaRate)
	}
	if med.IPC() >= mega.IPC() {
		t.Errorf("thrashing Medium IPC %.2f should trail resident Mega IPC %.2f", med.IPC(), mega.IPC())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
	.text
	li  s0, 10000
	li  t0, 0x300000
loop:
	sd  t1, 0(t0)
	ld  t2, 0(t0)      # must forward from the store
	addi s0, s0, -1
	bnez s0, loop
`
	st := runAsm(t, src, MediumBOOM())
	if st.StoreForward < 9000 {
		t.Errorf("only %d forwards for 10000 store-load pairs", st.StoreForward)
	}
}

func TestDeterminism(t *testing.T) {
	a := runWorkload(t, "stringsearch", LargeBOOM())
	b := runWorkload(t, "stringsearch", LargeBOOM())
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.Mispredicts != b.Mispredicts {
		t.Fatalf("nondeterministic timing: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Insts, b.Cycles, b.Insts)
	}
	for c := Component(0); c < NumComponents; c++ {
		if a.Comp[c] != b.Comp[c] {
			t.Errorf("component %v activity differs across identical runs", c)
		}
	}
}

func TestWarmupResetStats(t *testing.T) {
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := w.NewCPU()
	core := mustNew(t, MediumBOOM())
	next := traceFrom(t, cpu)
	mustRun(t, core, next, 20_000) // warm-up
	if core.Stats().Insts == 0 {
		t.Fatal("warm-up retired nothing")
	}
	core.ResetStats()
	if core.Stats().Insts != 0 || core.Stats().Cycles != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	mustRun(t, core, next, 20_000)
	if core.Stats().Insts == 0 {
		t.Fatal("post-warm-up run retired nothing")
	}
}

func TestFpWorkloadUsesFpStructures(t *testing.T) {
	fft := runWorkload(t, "fft", LargeBOOM())
	bc := runWorkload(t, "bitcount", LargeBOOM())
	if fft.Comp[CompFpIssue].Occupancy == 0 || fft.Comp[CompFpRF].Reads == 0 {
		t.Error("fft must exercise FP issue queue and FP register file")
	}
	if bc.Comp[CompFpRF].Reads > fft.Comp[CompFpRF].Reads/100 {
		t.Errorf("bitcount FP RF reads (%d) should be negligible vs fft (%d)",
			bc.Comp[CompFpRF].Reads, fft.Comp[CompFpRF].Reads)
	}
	// Key Takeaway #3: FP rename snapshot activity exists even in integer
	// code (allocation-list copies on branches).
	if bc.Comp[CompFpRename].Shifts == 0 {
		t.Error("integer workload must still exercise FP rename snapshots")
	}
}

func TestGShareAblation(t *testing.T) {
	cfg := MediumBOOM()
	cfg.Predictor = PredictorGShare
	st := runWorkload(t, "dijkstra", cfg)
	tage := runWorkload(t, "dijkstra", MediumBOOM())
	// GShare does one table read per lookup vs TAGE's tables+1: activity
	// must be far lower (this is what drives the 2.5× power ablation).
	if st.Comp[CompBranchPredictor].Reads >= tage.Comp[CompBranchPredictor].Reads {
		t.Errorf("gshare BP reads %d should be below TAGE %d",
			st.Comp[CompBranchPredictor].Reads, tage.Comp[CompBranchPredictor].Reads)
	}
	if st.Insts != tage.Insts {
		t.Error("predictor choice must not change the committed path")
	}
}

func TestCacheModelLRU(t *testing.T) {
	var c cacheModel
	c.reset(1, 2, 64) // 1 KiB, 2-way, 64 B lines → 8 sets
	a := uint64(0x0000)
	b := uint64(0x2000) // same set, different tag
	d := uint64(0x4000) // same set again
	if c.access(a) {
		t.Fatal("cold miss expected")
	}
	if !c.access(a) {
		t.Fatal("hit expected")
	}
	c.access(b)      // set now holds a,b
	if c.access(d) { // evicts LRU = a
		t.Fatal("conflict miss expected")
	}
	if c.access(a) {
		t.Fatal("a must have been evicted (LRU)")
	}
	if !c.access(d) || !c.access(a) {
		t.Fatal("most-recent lines must hit")
	}
	if !c.probe(a) {
		t.Fatal("probe must see resident line")
	}
	if c.probe(0x8000) {
		t.Fatal("probe must not allocate")
	}
}

func TestStatsAddAndScale(t *testing.T) {
	cfg := MediumBOOM()
	a := NewStats(&cfg)
	a.Cycles, a.Insts = 100, 200
	a.Comp[CompRob].Reads = 50
	a.IntIssueSlotCycles[3] = 40
	b := NewStats(&cfg)
	b.Cycles, b.Insts = 10, 20
	b.Comp[CompRob].Reads = 5
	a.Add(b)
	if a.Cycles != 110 || a.Insts != 220 || a.Comp[CompRob].Reads != 55 {
		t.Fatalf("Add wrong: %+v", a)
	}
	a.ScaleWeighted(0.5)
	if a.Cycles != 55 || a.Comp[CompRob].Reads != 27 {
		t.Fatalf("Scale wrong: cycles=%d rob=%d", a.Cycles, a.Comp[CompRob].Reads)
	}
	if a.IntIssueSlotCycles[3] != 20 {
		t.Fatalf("slot scale wrong: %d", a.IntIssueSlotCycles[3])
	}
}
