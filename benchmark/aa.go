package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// executeAA is the A/A self-check: two full end-to-end sets from the same
// binary, back to back, compared metric by metric. Timing metrics must
// agree within their declared bound; exact metrics must be identical. A
// benchmark that fails its own A/A cannot resolve a regression of the size
// its bounds claim.
func executeAA(e *env, ws []workload, budget time.Duration, w io.Writer) (int, error) {
	var sets [2][]*result
	for i := range sets {
		var err error
		if sets[i], err = measure(e, ws, minReps, budget); err != nil {
			return 0, err
		}
	}
	line := driverLine{Metrics: map[string]metricJSON{}}
	disagree := 0
	fmt.Fprintf(w, "\nA/A: set B against set A (same binary, back to back)\n")
	fmt.Fprintf(w, "  %-16s %-26s %14s %14s %9s %8s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, r := range []*result{a, b} {
			ops, failed, notes := r.totals()
			line.Attempted += ops
			line.Failed += failed
			for _, n := range notes {
				fmt.Fprintf(w, "  FAILED: %s: %s\n", r.w.name(), n)
			}
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), ungated...) {
			va, vb := a.series(d.name), b.series(d.name)
			if len(va) == 0 {
				continue
			}
			ma, mb := summarize(d, va).value, summarize(d, vb).value
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*d.bound)
			var diff float64
			if ma != 0 {
				diff = (mb - ma) / math.Abs(ma)
			}
			switch {
			case d.exact:
				bound = "exact"
				sa, sb := summarize(d, va), summarize(d, vb)
				if ma != mb || sa.min != sa.max || sb.min != sb.max {
					verdict = "DIFFERS"
				}
			case math.Abs(diff) > d.bound:
				verdict = "OUTSIDE BOUND"
			}
			if verdict != "ok" {
				disagree++
			}
			fmt.Fprintf(w, "  %-16s %-26s %14.6g %14.6g %+8.2f%% %8s  %s\n",
				a.w.name(), d.name, ma, mb, 100*diff, bound, verdict)
		}
	}
	fmt.Fprintf(w, "A/A: %d workload x metric pair(s) disagree\n", disagree)
	line.Failed += disagree
	line.Attempted += disagree
	return finish(w, e, line), nil
}
