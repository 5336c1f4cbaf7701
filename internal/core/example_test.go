package core_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Evaluate one workload on one BOOM design point with the SimPoint-based
// flow and print IPC, energy efficiency and the top power hotspots: the
// whole pipeline of the paper in a few lines.
func ExampleRunner() {
	// 1. Build a workload (MiBench sha at test scale).
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Profile: BBVs → SimPoint clustering → checkpoints.
	r := core.New(core.FlowConfigFor(workloads.ScaleTiny))
	profile, err := r.Profile(context.Background(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d instructions, %d simulation points (%.0f%% coverage)\n",
		w.Name, profile.TotalInsts, profile.NumSimPoints(),
		100*profile.Selection.Coverage)

	// 3. Measure the simulation points on MediumBOOM and estimate power.
	res, err := r.Run(context.Background(), profile, boom.MediumBOOM())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPC %.2f, tile power %.2f mW, %.0f IPC/W\n\n",
		res.IPC(), res.TotalPowerMW(), res.PerfPerWatt())

	// 4. Rank the power hotspots (the paper's Figs. 5–7 view).
	comps := boom.AnalyzedComponents()
	sort.SliceStable(comps, func(i, j int) bool {
		return res.Power.Comp[comps[i]].TotalMW() > res.Power.Comp[comps[j]].TotalMW()
	})
	fmt.Println("top-5 power hotspots:")
	for _, c := range comps[:5] {
		fmt.Printf("  %-16s %5.2f mW\n", c, res.Power.Comp[c].TotalMW())
	}
	// Output:
	// sha: 157606 instructions, 6 simulation points (100% coverage)
	// IPC 1.72, tile power 12.40 mW, 138 IPC/W
	//
	// top-5 power hotspots:
	//   BranchPredictor   3.61 mW
	//   LSU               0.91 mW
	//   L1-DCache         0.77 mW
	//   ROB               0.64 mW
	//   IntIssue          0.60 mW
}
