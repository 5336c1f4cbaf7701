package core

// Tests for intra-cell point parallelism (points.go, DESIGN §4): the
// worker pool must claim every checkpoint exactly once, the ordered
// reduce must be bit-identical at any parallelism and any completion
// order, and the two silent-failure bugs in the measure path — a
// swallowed per-point estimate error and a zero-coverage division —
// must stay fixed.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boom"
	"repro/internal/simpoint"
)

// TestEstimateErrorSurfaced is the regression for the swallowed per-point
// estimate failure: before the fix a non-nil EstimateInto error dropped
// the point from res.Points while the aggregate kept its stats — reports
// went inconsistent with no error anywhere. A failing estimate (here
// injected at the core.estimate site, which feeds the same error path)
// must now fail the cell with a StageEstimate error.
func TestEstimateErrorSurfaced(t *testing.T) {
	p := profileOf(t, "sha")
	r := New(DefaultFlowConfig(),
		WithFaultInjector(mustInj(t, "1:core.estimate/sha/MediumBOOM=error")))
	_, err := r.Run(context.Background(), p, boom.MediumBOOM())
	if err == nil {
		t.Fatal("estimate failure was swallowed: Run returned nil error")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if se.Stage != StageEstimate {
		t.Errorf("stage %q, want %q", se.Stage, StageEstimate)
	}
}

// TestCoverageZeroSkipsNormalization is the regression for the NaN
// poisoning: a degenerate selection with Coverage == 0 used to divide
// every slot power by zero. The guard must keep the result finite (and
// the same for a NaN or +Inf coverage).
func TestCoverageZeroSkipsNormalization(t *testing.T) {
	p := profileOf(t, "bitcount")
	for _, cov := range []float64{0, math.NaN(), math.Inf(1)} {
		p.Selection.Coverage = cov
		res, err := New(DefaultFlowConfig()).Run(context.Background(), p, boom.MediumBOOM())
		if err != nil {
			t.Fatalf("coverage %v: %v", cov, err)
		}
		for s, v := range res.Slots {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("coverage %v poisoned slot %d power: %v", cov, s, v)
			}
		}
		if len(res.Points) != res.NumPoints {
			t.Fatalf("coverage %v: %d point results for %d points",
				cov, len(res.Points), res.NumPoints)
		}
	}
}

// TestPointParallelismBitIdentical is the determinism suite for the
// parallel merge: the same cell measured serially and with every core
// sharing the budget must produce byte-identical canonical results.
// Running under -race additionally makes this the pool's race check.
func TestPointParallelismBitIdentical(t *testing.T) {
	p := profileOf(t, "stringsearch")
	for _, cfg := range []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()} {
		serial, err := New(DefaultFlowConfig(), WithParallelism(1)).
			Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := New(DefaultFlowConfig(), WithParallelism(runtime.NumCPU())).
			Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := EncodeMeasuredResult(serial)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := EncodeMeasuredResult(wide)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, wb) {
			t.Errorf("%s: -j1 and -j%d results differ (%d vs %d bytes)",
				cfg.Name, runtime.NumCPU(), len(sb), len(wb))
		}
	}
}

// TestRunPointsClaimsEachIndexOnce: the pool's atomic index claim must
// hand every point to exactly one worker, for pools narrower and wider
// than the work.
func TestRunPointsClaimsEachIndexOnce(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		for _, n := range []int{0, 1, 5, 33} {
			r := New(DefaultFlowConfig(), WithParallelism(par))
			counts := make([]atomic.Int32, n+1)
			r.runPoints(n, func(i int, _ *pointScratch) {
				counts[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("par=%d n=%d: point %d ran %d times", par, n, i, got)
				}
			}
		}
	}
}

// splitmix64 is the deterministic generator behind the synthetic reduce
// inputs: the same seed always replays the same measurement stream.
func splitmix64(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// TestOrderedReduceShuffledCompletion property-tests the ordered reduce:
// workers deposit synthetic per-point measurements under deliberately
// skewed completion orders (a different pseudo-random delay pattern each
// round), and every round's fold must be bit-identical to a serial
// reference fold of the same inputs. The fold mutates its inputs
// (ScaleWeighted), so each round regenerates them from the same seed.
func TestOrderedReduceShuffledCompletion(t *testing.T) {
	cfg := boom.MediumBOOM()
	const n = 12
	sel := &simpoint.Result{Coverage: 0.95}
	selRng := splitmix64(7)
	for i := 0; i < n; i++ {
		sel.Selected = append(sel.Selected,
			simpoint.Point{Interval: i, Weight: float64(selRng()%1000) / 1000.0})
	}
	mkOuts := func() []pointOutput {
		next := splitmix64(42)
		outs := make([]pointOutput, n)
		for i := range outs {
			st := boom.NewStats(&cfg)
			st.Cycles = next() % 1e6
			st.Insts = next() % 1e6
			st.Branches = next() % 1e5
			st.Mispredicts = next() % 1e4
			for s := range st.IntIssueSlotCycles {
				st.IntIssueSlotCycles[s] = next() % 1e6
			}
			slots := make([]float64, cfg.IntIssueSlots)
			for s := range slots {
				slots[s] = float64(next()%1e9) / 1e3
			}
			outs[i] = pointOutput{
				stats:    st,
				slots:    slots,
				point:    PointResult{Interval: int64(i), Weight: sel.Selected[i].Weight},
				detailed: next() % 1e6,
			}
		}
		return outs
	}
	refAgg, refSlots, refPoints, refDet := foldPoints(&cfg, sel, mkOuts())

	for round := 0; round < 8; round++ {
		fresh := mkOuts()
		outs := make([]pointOutput, n)
		r := New(DefaultFlowConfig(), WithParallelism(8))
		delayRng := splitmix64(uint64(round) + 1000)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(delayRng()%3000) * time.Microsecond
		}
		r.runPoints(n, func(i int, _ *pointScratch) {
			time.Sleep(delays[i])
			outs[i] = fresh[i]
		})
		agg, aggSlots, points, det := foldPoints(&cfg, sel, outs)
		if agg.Cycles != refAgg.Cycles || agg.Insts != refAgg.Insts || det != refDet {
			t.Fatalf("round %d: aggregate differs from serial reference", round)
		}
		for s := range aggSlots {
			if aggSlots[s] != refSlots[s] {
				t.Fatalf("round %d: slot %d power %v != %v (not bit-identical)",
					round, s, aggSlots[s], refSlots[s])
			}
		}
		for i := range points {
			if points[i] != refPoints[i] {
				t.Fatalf("round %d: point %d result reordered", round, i)
			}
		}
	}
}
