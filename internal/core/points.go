package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/boom"
	"repro/internal/power"
	"repro/internal/simpoint"
)

// Intra-cell point parallelism (DESIGN §4). Every simulation point of one
// (workload, config) cell restores its own architectural checkpoint into a
// fresh functional CPU and a cold timing core (its worker's, Reset between
// points), so points are independent and can be measured concurrently. Two
// invariants make this safe:
//
//   - One shared budget. The Runner owns a slot semaphore of capacity -j
//     shared between cell-level sweep workers and intra-cell point helpers,
//     so the process never runs more than -j measurement goroutines no
//     matter how the work is shaped. Helpers only try-acquire: when the
//     sweep saturates the budget with cells, measurement inside each cell
//     degrades gracefully to serial; when cells are scarce (a single
//     workload, a DSE tail), the idle slots drain into the points.
//
//   - Ordered reduce. Point workers never touch the cell aggregate; each
//     deposits its raw measurement into an index-addressed slot and the
//     floating-point reduction replays serially in checkpoint order
//     afterwards — the exact accumulation sequence of the old serial loop,
//     which is what keeps every digest in testdata/equivalence_golden.txt
//     byte-identical at any -j.

// errSiblingPoint is the cancellation cause recorded when one simulation
// point fails: sibling workers stop claiming points without manufacturing
// errors of their own, so the fold surfaces the original failure instead
// of a cancellation artifact.
var errSiblingPoint = errors.New("core: sibling simulation point failed")

// pointOutput is one simulation point's raw measurement, deposited by a
// point worker and folded into the cell aggregate strictly in checkpoint
// order. Exactly one of {stats, err, panicked, aborted} outcomes is set.
type pointOutput struct {
	stats    *boom.Stats // unweighted interval activity
	slots    []float64   // unweighted per-int-issue-slot power
	point    PointResult
	detailed uint64 // warm-up + measured instructions on the detailed model
	err      error  // fatal for the cell, already *StageError-wrapped
	panicked any    // recovered panic value, re-thrown on the folding goroutine
	aborted  bool   // skipped because a sibling point already failed
}

// pointScratch is what one point worker keeps from point to point of a
// cell: the power report EstimateInto fills (consumed before the next
// point) and the timing core, built at the worker's first point and Reset
// for each later one instead of reallocating its tables.
type pointScratch struct {
	report power.Report
	core   *boom.Core
}

// runPoints executes body(i, scratch) for every point index in [0, n).
// The calling goroutine is always worker zero; helpers are admitted by
// try-acquiring slots from the Runner's shared budget, so cell-level sweep
// workers and point helpers can never oversubscribe -j between them. Each
// worker owns a private pointScratch.
// Point indices are claimed atomically; body must be panic-free or capture
// its own panics — a panic escaping body on a helper goroutine would kill
// the process.
func (r *Runner) runPoints(n int, body func(i int, scratch *pointScratch)) {
	if n == 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		var scratch pointScratch
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i, &scratch)
		}
	}
	extra := r.par - 1
	if extra > n-1 {
		extra = n - 1
	}
	var wg sync.WaitGroup
admit:
	for k := 0; k < extra; k++ {
		select {
		case r.sem <- struct{}{}:
		default:
			break admit // budget exhausted: the sweep has the cores
		}
		wg.Add(1)
		go func() {
			defer func() { <-r.sem; wg.Done() }()
			work()
		}()
	}
	work()
	wg.Wait()
}

// foldPoints is the ordered reduce: it replays the per-point accumulation
// serially in checkpoint-index order, producing the weighted aggregate
// stats, the weighted slot-power vector, the per-point phase results, and
// the detailed-instruction total. The arithmetic — per-slot multiply-add,
// ScaleWeighted, Stats.Add — runs in exactly the order the old serial
// measure loop used, so the result is bit-identical to a serial
// measurement regardless of the completion order of the point workers.
// Every outs[i] must be a successful measurement (stats non-nil).
func foldPoints(cfg *boom.Config, sel *simpoint.Result, outs []pointOutput) (
	agg *boom.Stats, aggSlots []float64, points []PointResult, detailed uint64) {
	agg = boom.NewStats(cfg)
	aggSlots = make([]float64, cfg.IntIssueSlots)
	for i := range outs {
		o := &outs[i]
		w := sel.Selected[i].Weight
		points = append(points, o.point)
		for s := range aggSlots {
			aggSlots[s] += w * o.slots[s]
		}
		o.stats.ScaleWeighted(w)
		agg.Add(o.stats)
		detailed += o.detailed
	}
	return agg, aggSlots, points, detailed
}

// firstPointFailure scans outputs in checkpoint order and surfaces the
// lowest-index real failure the way the serial loop would have: a
// recovered panic is re-thrown (for the sweep supervisor's recover to
// convert into a Panicked *StageError), an error is returned as-is, and
// sibling-abort placeholders are skipped — they only exist because some
// other index holds the real failure. Returns nil when every point
// succeeded.
func firstPointFailure(outs []pointOutput) error {
	for i := range outs {
		if outs[i].panicked != nil {
			panic(outs[i].panicked)
		}
		if outs[i].err != nil {
			return outs[i].err
		}
	}
	for i := range outs {
		if outs[i].aborted {
			// Defensive: an abort can only be caused by a sibling failure,
			// which the loop above would have surfaced already.
			return context.Canceled
		}
	}
	return nil
}
