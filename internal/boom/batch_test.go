package boom

// The core reads its trace a batch at a time and keeps the unread rest of a
// batch across Run and Warm calls. Where the batches break, and where the
// calls break, must not reach a simulated byte.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// unevenBatches are the batch sizes the shapes below cycle through: one
// record, either side of sim.TraceBatch, and a batch longer than a
// MegaBOOM window, so that a batch edge falls inside, at and beyond the
// window's reach.
var unevenBatches = []int{1, sim.TraceBatch - 1, sim.TraceBatch, sim.TraceBatch + 1, 200}

// batchEdges is where the first round of unevenBatches ends each batch, as
// a record count from the start of the trace.
func batchEdges() []uint64 {
	var edges []uint64
	var at uint64
	for _, n := range unevenBatches {
		at += uint64(n)
		edges = append(edges, at)
	}
	return edges
}

// traceShape is one way of handing a recorded trace to a core.
type traceShape struct {
	name string
	// run drives c over tr: warm records through Warm first when warm > 0,
	// then RunSource (or Run) split at the retire counts in splits, then
	// to the end of the trace.
	run func(t *testing.T, c *Core, tr []sim.Retired, warm uint64, splits []uint64)
}

func batchShape(name string, sizes []int) traceShape {
	return traceShape{name, func(t *testing.T, c *Core, tr []sim.Retired, warm uint64, splits []uint64) {
		src := &replaySource{tr: tr, sizes: sizes}
		if warm > 0 {
			if n, err := c.Warm(src, warm); err != nil || n != warm {
				t.Fatalf("Warm = %d, %v; want %d", n, err, warm)
			}
		}
		var done uint64
		for _, s := range splits {
			done += mustRun(t, c, src, s-done)
		}
		mustRun(t, c, src, math.MaxUint64)
	}}
}

// traceShapes are the shapes every case is run in: the whole trace as one
// batch, one record per batch, the uneven batches, and Run's one-record
// adapter.
var traceShapes = []traceShape{
	batchShape("one slice", nil),
	batchShape("one-record batches", []int{1}),
	batchShape(fmt.Sprint("batches of ", unevenBatches), unevenBatches),
	{"Run's callback", func(t *testing.T, c *Core, tr []sim.Retired, warm uint64, splits []uint64) {
		src := &replaySource{tr: tr, sizes: []int{1}}
		if warm > 0 {
			if n, err := c.Warm(src, warm); err != nil || n != warm {
				t.Fatalf("Warm = %d, %v; want %d", n, err, warm)
			}
		}
		run := func(n uint64) uint64 {
			got, err := c.Run(src.next, n)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		var done uint64
		for _, s := range splits {
			done += run(s - done)
		}
		run(math.MaxUint64)
	}},
}

// TestBatchBoundariesChangeNothing: a recorded trace measures the same
// stats bytes and ends at the same cycle whatever batches it arrives in,
// wherever Run is split — on either side of each batch edge — and across
// a Warm→Run seam on either side of one. -short keeps sha on MediumBOOM.
func TestBatchBoundariesChangeNothing(t *testing.T) {
	names, cfgs := []string{"sha", "tarfind"}, []Config{MediumBOOM(), MegaBOOM()}
	if testing.Short() {
		names, cfgs = names[:1], cfgs[:1]
	}
	type cut struct {
		what   string
		warm   uint64
		splits []uint64
	}
	cuts := []cut{{what: "one Run"}}
	for _, e := range batchEdges() {
		cuts = append(cuts, cut{
			what:   fmt.Sprintf("Run split at %d, %d and %d", e-1, e, e+1),
			splits: []uint64{e - 1, e, e + 1},
		})
		for _, w := range []uint64{e - 1, e, e + 1} {
			if w > 0 {
				cuts = append(cuts, cut{what: fmt.Sprintf("Warm %d then Run", w), warm: w})
			}
		}
	}
	for _, name := range names {
		tr := workloadTrace(t, name)
		for _, cfg := range cfgs {
			for _, k := range cuts {
				var want []byte
				var wantCycle uint64
				for i, sh := range traceShapes {
					c := mustNew(t, cfg)
					sh.run(t, c, tr, k.warm, k.splits)
					if c.retired+k.warm != uint64(len(tr)) {
						t.Fatalf("%s on %s, %s, %s: retired %d + warmed %d of %d records",
							name, cfg.Name, k.what, sh.name, c.retired, k.warm, len(tr))
					}
					got := statsBytes(t, c)
					if i == 0 {
						want, wantCycle = got, c.cycle
						continue
					}
					if !bytes.Equal(got, want) || c.cycle != wantCycle {
						t.Errorf("%s on %s, %s: %s measured differently from one slice (cycle %d, want %d)",
							name, cfg.Name, k.what, sh.name, c.cycle, wantCycle)
					}
				}
			}
		}
	}
}

// TestResetDropsTheHeldBatch: a core Reset in the middle of a batch onto a
// second program measures that program exactly as a new core does, and
// never reads the first program's source again.
func TestResetDropsTheHeldBatch(t *testing.T) {
	first, second := workloadTrace(t, "sha"), workloadTrace(t, "bitcount")
	cfg := MediumBOOM()
	want := mustNew(t, cfg)
	mustRun(t, want, &replaySource{tr: second}, math.MaxUint64)

	c := mustNew(t, cfg)
	src := &replaySource{tr: first, sizes: []int{200}}
	mustRun(t, c, src, 1000)
	if c.pos == 0 || c.pos == len(c.recs) {
		t.Fatalf("the core holds %d of %d records of its batch; the case needs a batch read part-way", len(c.recs)-c.pos, len(c.recs))
	}
	unread := len(src.tr)
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, &replaySource{tr: second, sizes: unevenBatches}, math.MaxUint64)
	if len(src.tr) != unread {
		t.Errorf("the core read %d records of the first program after Reset", unread-len(src.tr))
	}
	if c.retired != uint64(len(second)) || c.cycle != want.cycle || !bytes.Equal(statsBytes(t, c), statsBytes(t, want)) {
		t.Errorf("after Reset the second program retired %d of %d at cycle %d (a new core: %d) with different stats",
			c.retired, len(second), c.cycle, want.cycle)
	}
}

// TestSkippedCyclesCounter: boom.skipped_cycles counts the cycles
// skipQuiet advanced over — some on tarfind, never more than boom.cycles —
// and none on a core that steps every cycle.
func TestSkippedCyclesCounter(t *testing.T) {
	tr := workloadTrace(t, "tarfind")
	for _, step := range []bool{false, true} {
		reg := metrics.NewRegistry()
		c := mustNew(t, MediumBOOM())
		c.SetMetrics(reg)
		c.CheckInvariants(step)
		src := &replaySource{tr: tr, sizes: []int{sim.TraceBatch}}
		mustRun(t, c, src, uint64(len(tr)/2))
		mustRun(t, c, src, math.MaxUint64)
		cycles, skipped := reg.Counter("boom.cycles").Value(), reg.Counter("boom.skipped_cycles").Value()
		switch {
		case cycles != int64(c.cycle):
			t.Errorf("CheckInvariants(%v): boom.cycles = %d, the core ran %d", step, cycles, c.cycle)
		case skipped != int64(c.skipped):
			t.Errorf("CheckInvariants(%v): boom.skipped_cycles = %d, the core skipped %d", step, skipped, c.skipped)
		case step && skipped != 0:
			t.Errorf("a core that steps every cycle published %d skipped cycles", skipped)
		case !step && (skipped <= 0 || skipped > cycles):
			t.Errorf("tarfind published %d skipped of %d cycles", skipped, cycles)
		}
	}
}
