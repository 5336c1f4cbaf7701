package boom

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/workloads"
)

// frontEndDiff names the first predictor, BTB or RAS structure in which a
// and b differ, or is "" when their state is bit-identical. The TAGE
// tables' idx/tag fields are per-branch scratch, not state.
func frontEndDiff(a, b *bpred) string {
	switch {
	case a.hist != b.hist:
		return "global history"
	case !slices.Equal(a.bimodal, b.bimodal):
		return "bimodal"
	case !slices.Equal(a.gshare, b.gshare):
		return "gshare"
	case !slices.Equal(a.btbTags, b.btbTags) || !slices.Equal(a.btbTargets, b.btbTargets) ||
		!slices.Equal(a.btbValid, b.btbValid):
		return "BTB"
	case !slices.Equal(a.ras, b.ras) || a.rasTop != b.rasTop || a.rasCnt != b.rasCnt:
		return "RAS"
	}
	for i := range a.tables {
		ta, tb := &a.tables[i], &b.tables[i]
		if !slices.Equal(ta.tags, tb.tags) || !slices.Equal(ta.ctr, tb.ctr) || !slices.Equal(ta.useful, tb.useful) {
			return fmt.Sprintf("TAGE table %d", i)
		}
	}
	return ""
}

// TestWarmSeamIsExact is the premise of functional warming's front-end
// half: warming the first half of a trace with Warm and running the rest
// through the tick kernel leaves the predictor, BTB and RAS exactly where
// an all-detailed run leaves them, with the same Branches, Mispredicts and
// BTBMisses totals — for every workload, preset and predictor kind.
func TestWarmSeamIsExact(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := workloadTrace(t, name)
			half := uint64(len(tr) / 2)
			for _, base := range Configs() {
				for _, pk := range []PredictorKind{PredictorTAGE, PredictorGShare} {
					cfg := base
					cfg.Predictor = pk
					ref := mustNew(t, cfg)
					mustRun(t, ref, (&replaySource{tr: tr}).next, math.MaxUint64)

					c := mustNew(t, cfg)
					src := &replaySource{tr: tr}
					if n, err := c.Warm(src.next, half); err != nil || n != half {
						t.Fatalf("%s/%s: Warm = %d, %v; want %d, nil", cfg.Name, pk, n, err, half)
					}
					if c.cycle != 0 || c.retired != 0 || c.head != c.tail || c.peeked {
						t.Fatalf("%s/%s: Warm moved the pipeline: cycle %d retired %d window [%d,%d)",
							cfg.Name, pk, c.cycle, c.retired, c.head, c.tail)
					}
					mustRun(t, c, src.next, math.MaxUint64)

					if d := frontEndDiff(&ref.bp, &c.bp); d != "" {
						t.Errorf("%s/%s: %s differs after Warm(%d) + Run", cfg.Name, pk, d, half)
					}
					rs, ws := ref.Stats(), c.Stats()
					if rs.Branches != ws.Branches || rs.Mispredicts != ws.Mispredicts || rs.BTBMisses != ws.BTBMisses {
						t.Errorf("%s/%s: branches/mispredicts/BTB misses %d/%d/%d after Warm + Run, %d/%d/%d detailed",
							cfg.Name, pk, ws.Branches, ws.Mispredicts, ws.BTBMisses, rs.Branches, rs.Mispredicts, rs.BTBMisses)
					}
				}
			}
		})
	}
}

// TestWarmRefusesABusyPipeline: Warm on a core with µops in flight would
// train younger records ahead of older fetched ones, so it is refused and
// consumes nothing.
func TestWarmRefusesABusyPipeline(t *testing.T) {
	tr := kernelTrace(t, "sha")
	c := mustNew(t, MediumBOOM())
	src := &replaySource{tr: tr}
	mustRun(t, c, src.next, 1000)
	pos := src.pos
	if _, err := c.Warm(src.next, 100); !errors.Is(err, ErrPipelineBusy) {
		t.Fatalf("Warm on a busy pipeline: err %v, want ErrPipelineBusy", err)
	}
	if src.pos != pos {
		t.Fatalf("refused Warm consumed %d records", src.pos-pos)
	}
}

// TestWarmStopsAtTraceEnd: Warm reports the records it consumed when the
// trace ends first.
func TestWarmStopsAtTraceEnd(t *testing.T) {
	tr := kernelTrace(t, "sha")
	c := mustNew(t, MediumBOOM())
	n, err := c.Warm((&replaySource{tr: tr}).next, math.MaxUint64)
	if err != nil || n != uint64(len(tr)) {
		t.Fatalf("Warm = %d, %v; want %d, nil", n, err, len(tr))
	}
}
