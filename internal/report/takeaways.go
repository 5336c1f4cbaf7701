package report

import (
	"fmt"
	"strings"

	"repro/internal/boom"
	"repro/internal/core"
)

// Takeaways re-derives the paper's 8 Key Takeaways from a sweep's measured
// data, quoting the numbers that support (or contradict) each one. It is
// the reproduction of the paper's contribution #4.
func Takeaways(sw *core.Sweep) string {
	var sb strings.Builder
	names := orderedWorkloads(sw)
	cfgs := sw.ConfigNames

	mean := func(cfg string, comp boom.Component) float64 {
		present := presentCount(sw, cfg, names)
		if present == 0 {
			return 0
		}
		var m float64
		for _, n := range names {
			if r := resultOf(sw, cfg, n); r != nil {
				m += r.Power.Comp[comp].TotalMW() / float64(present)
			}
		}
		return m
	}
	tile := func(cfg string) float64 {
		present := presentCount(sw, cfg, names)
		if present == 0 {
			return 0
		}
		var m float64
		for _, n := range names {
			if r := resultOf(sw, cfg, n); r != nil {
				m += r.Power.TotalMW() / float64(present)
			}
		}
		return m
	}
	line := func(format string, args ...interface{}) {
		fmt.Fprintf(&sb, format+"\n", args...)
	}
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}

	first, last := cfgs[0], cfgs[len(cfgs)-1]

	line("Key takeaways, re-derived from this run (%s scale):", sw.Scale)
	line("")

	// #1 — Integer RF varies sharply across configs (ports → bypass).
	line("#1  Integer register file scales super-linearly with ports:")
	for _, cfg := range cfgs {
		line("      %-11s %5.2f mW (%4.1f%% of tile)", cfg,
			mean(cfg, boom.CompIntRF), pct(mean(cfg, boom.CompIntRF), tile(cfg)))
	}

	// #2 — FP RF static power on the largest config even without FP.
	intWl := pickMeasured(sw, last, names, "bitcount")
	if r := resultOf(sw, last, intWl); r != nil {
		fpB := r.Power.Comp[boom.CompFpRF]
		line("#2  FP register file on FP-free %q (%s): %.2f mW, %.0f%% leakage",
			intWl, last, fpB.TotalMW(), 100*fpB.LeakageMW/fpB.TotalMW())

		// #3 — FP rename burns power without FP instructions.
		line("#3  FP rename on FP-free %q: %.2f mW (int rename %.2f mW) — allocation-list copies per branch",
			intWl, r.Power.Comp[boom.CompFpRename].TotalMW(),
			r.Power.Comp[boom.CompIntRename].TotalMW())
	} else {
		line("#2  unavailable — no measured workload on %s", last)
		line("#3  unavailable — no measured workload on %s", last)
	}

	// #4 — Scheduler group is the second-largest consumer.
	for _, cfg := range cfgs {
		sched := mean(cfg, boom.CompIntIssue) + mean(cfg, boom.CompMemIssue) + mean(cfg, boom.CompFpIssue)
		line("#4  %-11s scheduler group %5.2f mW vs branch predictor %5.2f mW",
			cfg, sched, mean(cfg, boom.CompBranchPredictor))
	}

	// #5 — Collapsing queues: issue power tracks occupancy, not IPC.
	dij, sha := pickMeasured(sw, last, names, "dijkstra"), pickMeasured(sw, last, names, "sha")
	rd, rs := resultOf(sw, last, dij), resultOf(sw, last, sha)
	if rd != nil && rs != nil {
		line("#5  %s: IPC %.2f, int-issue %.2f mW  |  %s: IPC %.2f, int-issue %.2f mW",
			dij, rd.IPC(), rd.Power.Comp[boom.CompIntIssue].TotalMW(),
			sha, rs.IPC(), rs.Power.Comp[boom.CompIntIssue].TotalMW())
	}

	// #6 — ROB power scales with size; see BenchmarkAblationROBSize.
	line("#6  ROB: %s %.2f mW → %s %.2f mW (entries %d → %d); see BenchmarkAblationROBSize",
		first, mean(first, boom.CompRob), last, mean(last, boom.CompRob),
		boom.MediumBOOM().RobEntries, boom.MegaBOOM().RobEntries)

	// #7 — Branch predictor is the top consumer.
	for _, cfg := range cfgs {
		bp := mean(cfg, boom.CompBranchPredictor)
		line("#7  %-11s branch predictor %5.2f mW (%4.1f%% of tile) — top component",
			cfg, bp, pct(bp, tile(cfg)))
	}

	// #8 — Memory units + MSHRs trade power for concurrency.
	line("#8  L1D: %s %.2f mW → %s %.2f mW (same size on the larger cores: the delta is ports+MSHRs); see BenchmarkAblationMSHR",
		first, mean(first, boom.CompDCache), last, mean(last, boom.CompDCache))

	return sb.String()
}

// pickMeasured prefers want if it was measured on cfg, otherwise the first
// measured workload, otherwise "".
func pickMeasured(sw *core.Sweep, cfg string, names []string, want string) string {
	for _, n := range names {
		if n == want && resultOf(sw, cfg, n) != nil {
			return n
		}
	}
	for _, n := range names {
		if resultOf(sw, cfg, n) != nil {
			return n
		}
	}
	return ""
}
