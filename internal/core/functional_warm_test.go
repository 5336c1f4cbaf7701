package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// detailedWarmPoint is the reference for one simulation point under
// functional warming: it restores the point's checkpoint and runs its whole
// warm-up through the tick kernel, as every point did before Core.Warm,
// then measures the interval. It returns the interval's IPC and length.
func detailedWarmPoint(t *testing.T, p *Profile, i int, cfg boom.Config) (float64, uint64) {
	t.Helper()
	prog, err := p.Workload.Program()
	if err != nil {
		t.Fatal(err)
	}
	cpu := sim.New()
	cpu.AttachText(prog)
	p.Checkpoints[i].Restore(cpu)
	c, err := boom.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := &traceSource{cpu: cpu}
	if _, err := c.Run(ts.next, uint64(p.WarmupInsts[i])); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	ran, err := c.Run(ts.next, uint64(p.Interval))
	if err != nil || ts.err != nil {
		t.Fatalf("point %d: %v %v", i, err, ts.err)
	}
	return c.Stats().IPC(), ran
}

// TestFunctionalWarmingHoldsEveryPoint is functional warming's cache
// differential: under Recommended() (a proportional warm-up), every
// simulation point of every workload on every preset measures an IPC
// within ±0.5 % of the same point warmed entirely by the tick kernel.
// DetailedInsts counts only the tick kernel's instructions, at least 4×
// fewer than a detailed warm-up's on a point with the full warm-up. The
// front end's state is exact (boom's TestWarmSeamIsExact); what this
// bounds is the caches warmed in program order.
func TestFunctionalWarmingHoldsEveryPoint(t *testing.T) {
	const tolPct = 0.5
	ctx := context.Background()
	r := New(DefaultFlowConfig(), WithSampling(sampling.Recommended()))
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.Build(name, workloads.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.Profile(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range boom.Configs() {
				res, err := r.Run(ctx, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var table strings.Builder
				var ticked uint64
				bad := false
				fmt.Fprintf(&table, "%8s %10s %10s %8s\n", "interval", "IPC", "reference", "dev%")
				for i, pt := range res.Points {
					ref, ran := detailedWarmPoint(t, p, i, cfg)
					dev := 100 * (pt.IPC - ref) / ref
					mark := ""
					if math.Abs(dev) > tolPct || math.IsNaN(dev) {
						bad, mark = true, "  <-"
					}
					fmt.Fprintf(&table, "%8d %10.4f %10.4f %+8.3f%s\n", pt.Interval, pt.IPC, ref, dev, mark)
					warm := uint64(p.WarmupInsts[i])
					tail := min(warm, warmTail(cfg))
					ticked += tail + ran
					if full := 5 * uint64(p.Interval); warm == full && 4*(tail+ran) > warm+ran {
						t.Errorf("%s: point %d ticks %d of its %d instructions, more than a quarter", cfg.Name, i, tail+ran, warm+ran)
					}
				}
				if bad {
					t.Errorf("%s: a point's IPC is more than %.1f%% off its detailed warm-up:\n%s", cfg.Name, tolPct, table.String())
				}
				// A Run may retire past its target by less than one retire
				// group, so the interval lengths agree to that per point.
				slack := uint64(len(res.Points) * cfg.RetireWidth)
				if res.DetailedInsts+slack < ticked || res.DetailedInsts > ticked+slack {
					t.Errorf("%s: DetailedInsts %d, but the tick kernel ran %d (±%d)", cfg.Name, res.DetailedInsts, ticked, slack)
				}
			}
		})
	}
}

// TestFunctionalWarmingKeepsTheFullRunEstimate: the speedup report prices
// the full detailed run at the tick kernel's measured cost per instruction,
// so functional warming must not move it. Recommended()'s estimate stays
// within noise of a fixed warm-up of the same length, whose warm-up runs
// through the tick kernel. Charging Core.Warm's wall-clock to the ticked
// instructions read about 1.8× high. The two arms run back to back inside
// each repetition, each after a GC, so a phase of the host or a collection
// falls on both sides of a pair; the gate is the median of the per-pair
// ratios. Every run must also satisfy, exactly, the identities the
// estimate rests on: the report's TickWallNS plus each result's warm share
// (MeasureWallNS less TickWallNS: zero under the fixed policy, positive
// under functional warming) is its MeasureWallNS, and EstFullWallNS is
// TickWallNS / TickInsts × FullInsts.
func TestFunctionalWarmingKeepsTheFullRunEstimate(t *testing.T) {
	const reps, tol = 5, 1.3
	ctx := context.Background()
	cfg := boom.MediumBOOM()
	type arm struct {
		name       string
		r          *Runner
		profiles   []*Profile
		functional bool // the warm-up is proportional, so warmed by Core.Warm
	}
	rec := &arm{name: "functional", r: New(DefaultFlowConfig(), WithSampling(sampling.Recommended()), WithParallelism(1)), functional: true}
	ref := &arm{name: "tick-kernel", r: New(DefaultFlowConfig(), WithParallelism(1))}
	for _, name := range []string{"sha", "qsort", "fft", "dijkstra"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		p, err := rec.r.Profile(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		rec.profiles = append(rec.profiles, p)
		// The tick-kernel reference: the same features and warm-up length,
		// under the fixed policy.
		fixed := sampling.Recommended()
		fixed.WarmupPolicy, fixed.WarmupFactor = sampling.WarmupFixed, 0
		fixed.WarmupInsts = p.Interval * sampling.DefaultWarmupFactor
		rp, _, err := ref.r.profileWith(ctx, w, fixed, ref.r.profileKeys(w, fixed), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref.profiles = append(ref.profiles, rp)
	}
	// estimate measures every profile of a, checks the identities and
	// returns the full-run estimate.
	estimate := func(a *arm) int64 {
		t.Helper()
		runtime.GC()
		sw := &Sweep{Results: map[string]map[string]*Result{cfg.Name: {}}}
		var warm int64
		for _, p := range a.profiles {
			res, err := a.r.Run(ctx, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sw.Results[cfg.Name][p.Workload.Name] = res
			share := res.MeasureWallNS - res.TickWallNS
			if res.TickWallNS <= 0 || share < 0 || (share > 0) != a.functional {
				t.Fatalf("%s %s: TickWallNS %d of MeasureWallNS %d", a.name, p.Workload.Name, res.TickWallNS, res.MeasureWallNS)
			}
			warm += share
		}
		s := sw.SpeedupOf()
		if s.TickWallNS+warm != s.MeasureWallNS {
			t.Fatalf("%s: TickWallNS %d + warm share %d != MeasureWallNS %d", a.name, s.TickWallNS, warm, s.MeasureWallNS)
		}
		if s.TickInsts != s.DetailedInsts {
			t.Fatalf("%s: TickInsts %d, DetailedInsts %d: a result went unpriced", a.name, s.TickInsts, s.DetailedInsts)
		}
		est := s.EstFullWallNS()
		if want := int64(float64(s.TickWallNS) / float64(s.TickInsts) * float64(s.FullInsts)); est != want || est <= 0 {
			t.Fatalf("%s: EstFullWallNS %d, TickWallNS / TickInsts × FullInsts = %d", a.name, est, want)
		}
		return est
	}
	ratios := make([]float64, reps)
	for i := range ratios {
		ratios[i] = float64(estimate(rec)) / float64(estimate(ref))
	}
	slices.Sort(ratios)
	median := ratios[reps/2]
	t.Logf("full-run estimate, functional over tick-kernel warm-up: median %.3f× of %.3f", median, ratios)
	if median > tol || median < 1/tol {
		t.Errorf("full-run estimate under functional warming is %.2f× (median of %.2f) the estimate under a tick-kernel warm-up, want within %.1f×",
			median, ratios, tol)
	}
}

// TestTickEntryCarriesTheEstimate: a measure entry records one cost, so a
// proportional result's tick-kernel wall-clock travels to cache hits in
// the tick entry beside it. A warm run reports the cold run's figure; a
// tick entry that is not 8 bytes within the measure cost leaves the figure
// unmeasured, and the estimate then has nothing to price.
func TestTickEntryCarriesTheEstimate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := boom.MediumBOOM()
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		t.Helper()
		r := New(DefaultFlowConfig(), WithSampling(sampling.Recommended()), WithCache(dir))
		p, err := r.Profile(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(ctx, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.TickWallNS <= 0 || cold.TickWallNS >= cold.MeasureWallNS {
		t.Fatalf("cold run: TickWallNS %d of MeasureWallNS %d; want a share of it", cold.TickWallNS, cold.MeasureWallNS)
	}
	if warm := run(); warm.TickWallNS != cold.TickWallNS || warm.MeasureWallNS != cold.MeasureWallNS {
		t.Errorf("warm run: %d of %d ns, cold run %d of %d", warm.TickWallNS, warm.MeasureWallNS, cold.TickWallNS, cold.MeasureWallNS)
	}

	r := New(DefaultFlowConfig(), WithSampling(sampling.Recommended()), WithCache(dir))
	p, err := r.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	tk := tickKey(measureKey(p.CacheKey, cfg, r.fc.Lib))
	for _, bad := range [][]byte{{1, 2, 3}, binary.LittleEndian.AppendUint64(nil, uint64(cold.MeasureWallNS+1))} {
		if err := r.cache.Put(tk, bad, 0); err != nil {
			t.Fatal(err)
		}
		res := run()
		if res.TickWallNS != 0 || res.MeasureWallNS != cold.MeasureWallNS {
			t.Errorf("tick entry % x: TickWallNS %d, MeasureWallNS %d; want 0 and %d", bad, res.TickWallNS, res.MeasureWallNS, cold.MeasureWallNS)
		}
		sw := &Sweep{Results: map[string]map[string]*Result{cfg.Name: {"sha": res}}}
		if rep := sw.SpeedupOf(); rep.EstFullWallNS() != 0 || rep.WallSpeedup() != 0 {
			t.Errorf("tick entry % x: an unmeasured result priced the full run at %d ns", bad, rep.EstFullWallNS())
		}
	}
}
