package simpoint

import (
	"reflect"
	"testing"

	"repro/internal/bbv"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// initPPReference is k-means++ seeding as it was first written: every
// round recomputes each point's distance to every chosen center, O(n·k²)
// per run. initPP must choose the same centers and leave the rng where
// this leaves it.
func initPPReference(pts [][]float64, k int, rng *rng) [][]float64 {
	n := len(pts)
	centers := make([][]float64, 0, k)
	first := append([]float64(nil), pts[rng.intn(n)]...)
	centers = append(centers, first)
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i, p := range pts {
			d := sqDist(p, centers[0])
			for _, c := range centers[1:] {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			d2[i] = d
			sum += d
		}
		var idx int
		if sum == 0 {
			idx = rng.intn(n)
		} else {
			target := rng.float64() * sum
			for i, d := range d2 {
				target -= d
				if target <= 0 {
					idx = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), pts[idx]...))
	}
	return centers
}

// checkInitPP seeds every k from 1 to maxK, restarts times each, through
// one rng per side as chooseFrom does, and fails on the first difference.
func checkInitPP(t *testing.T, label string, pts [][]float64, maxK, restarts int) {
	t.Helper()
	got, want := newRNG(42), newRNG(42)
	for k := 1; k <= maxK; k++ {
		for r := 0; r < restarts; r++ {
			g, w := initPP(pts, k, got), initPPReference(pts, k, want)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: k=%d restart %d: centers differ from the reference", label, k, r)
			}
			if got.s != want.s {
				t.Fatalf("%s: k=%d restart %d: rng state %#x, reference %#x", label, k, r, got.s, want.s)
			}
		}
	}
}

// TestInitPPMatchesReference: the O(n·k) seeding is bit-identical to the
// O(n·k²) one on random points (duplicates included, so some rounds see a
// zero distance sum) and on the projected vectors of three real workloads.
func TestInitPPMatchesReference(t *testing.T) {
	src := newRNG(7)
	for _, shape := range []struct{ n, dims, distinct int }{{1, 3, 1}, {5, 2, 1}, {40, 15, 40}, {200, 15, 12}, {97, 23, 97}} {
		base := make([][]float64, shape.distinct)
		for i := range base {
			base[i] = make([]float64, shape.dims)
			for d := range base[i] {
				base[i][d] = src.float64()*2 - 1
			}
		}
		pts := make([][]float64, shape.n)
		for i := range pts {
			pts[i] = base[src.intn(shape.distinct)]
		}
		checkInitPP(t, "random", pts, min(30, shape.n), 5)
	}

	cfg := DefaultConfig()
	for _, name := range []string{"qsort", "sha", "dijkstra"} {
		w, err := workloads.Build(name, workloads.ScaleDefault)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := w.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		bp := bbv.NewProfiler(w.IntervalSize)
		if _, err := cpu.RunTrace(-1, func(r *sim.Retired) { bp.Observe(r) }); err != nil {
			t.Fatal(err)
		}
		bp.Finish()
		pts := project(bp.Vectors(), cfg.Dims, cfg.Seed)
		checkInitPP(t, name, pts, min(cfg.MaxK, len(pts)-1), cfg.Restarts)
	}
}
