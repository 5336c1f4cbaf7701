// Package simpoint re-implements the SimPoint 3.0 methodology (Hamerly,
// Perelman, Lau, Calder): basic-block vectors are L1-normalized, randomly
// projected down to a few dimensions, clustered with k-means across a range
// of k, the best k is selected with the Bayesian Information Criterion, and
// each cluster is represented by the interval closest to its centroid. The
// representatives, ranked by cluster weight, are the simulation points.
package simpoint

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bbv"
	"repro/internal/mav"
)

// Config controls the clustering. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	Dims           int     // random-projection dimensionality (paper flow: 15)
	MaxK           int     // largest cluster count to try
	Restarts       int     // k-means restarts per k
	MaxIters       int     // k-means iteration cap
	Seed           int64   // deterministic seed for projection + init
	BICThreshold   float64 // pick the smallest k reaching this fraction of the best BIC range
	CoverageTarget float64 // rank points until cumulative weight reaches this
}

// DefaultConfig mirrors the settings the paper's flow uses: 15-dimensional
// projection, up to 30 clusters, ≥90 % coverage from the top-ranked points.
func DefaultConfig() Config {
	return Config{
		Dims:           15,
		MaxK:           30,
		Restarts:       5,
		MaxIters:       100,
		Seed:           42,
		BICThreshold:   0.9,
		CoverageTarget: 0.9,
	}
}

// Point is one chosen simulation point.
type Point struct {
	Interval int     // index of the representative interval
	Cluster  int     // cluster it represents
	Weight   float64 // fraction of all intervals in that cluster
}

// ClusterStats summarizes the k-means work behind a selection — the
// convergence accounting the flow's observability layer reports.
type ClusterStats struct {
	KTried     int  // number of k values attempted
	Runs       int  // total k-means runs (k values × restarts)
	Iterations int  // total Lloyd iterations across every run
	Converged  bool // the chosen k's best run converged before MaxIters
}

// Result is the outcome of SimPoint selection.
type Result struct {
	K           int          // chosen number of clusters
	Assignments []int        // interval → cluster
	Points      []Point      // all representatives, ranked by weight (descending)
	Selected    []Point      // top-ranked points reaching the coverage target
	Coverage    float64      // cumulative weight of Selected
	Stats       ClusterStats // k-means iteration/convergence accounting
}

// Choose runs the full SimPoint pipeline on the per-interval BBVs.
func Choose(vectors []bbv.Vector, cfg Config) (*Result, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("simpoint: no intervals")
	}
	if cfg.Dims <= 0 || cfg.MaxK <= 0 {
		return nil, fmt.Errorf("simpoint: invalid config (Dims=%d MaxK=%d)", cfg.Dims, cfg.MaxK)
	}
	return chooseFrom(project(vectors, cfg.Dims, cfg.Seed), cfg), nil
}

// ChooseCombined runs the SimPoint pipeline on concatenated BBV ⊕ MAV
// features: each interval's point is its projected, L1-normalized BBV
// with the interval's L1-normalized memory-access vector appended. Both
// halves are unit-L1, so code-structure and memory-behavior differences
// carry comparable weight and k-means separates intervals that execute
// the same blocks over different working sets. The BBV-only path
// (Choose) is untouched — byte-identical results for legacy specs.
func ChooseCombined(vectors []bbv.Vector, mavs []mav.Vector, cfg Config) (*Result, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("simpoint: no intervals")
	}
	if len(mavs) != len(vectors) {
		return nil, fmt.Errorf("simpoint: %d MAVs for %d BBV intervals", len(mavs), len(vectors))
	}
	if cfg.Dims <= 0 || cfg.MaxK <= 0 {
		return nil, fmt.Errorf("simpoint: invalid config (Dims=%d MaxK=%d)", cfg.Dims, cfg.MaxK)
	}
	pts := project(vectors, cfg.Dims, cfg.Seed)
	for i, m := range mavs {
		total := m.Total()
		if total == 0 {
			total = 1
		}
		p := pts[i]
		for _, c := range m {
			p = append(p, c/total)
		}
		pts[i] = p
	}
	return chooseFrom(pts, cfg), nil
}

// chooseFrom clusters prepared feature points: k-means across a range of
// k, BIC selection, representatives ranked by weight to the coverage
// target. It is the shared back half of Choose and ChooseCombined.
func chooseFrom(pts [][]float64, cfg Config) *Result {
	n := len(pts)

	// k = n would make the BIC variance estimate degenerate; cap below it.
	maxK := cfg.MaxK
	if maxK > n-1 {
		maxK = n - 1
	}
	if maxK < 1 {
		maxK = 1
	}
	type attempt struct {
		k         int
		assign    []int
		centers   [][]float64
		bic       float64
		converged bool
	}
	stats := ClusterStats{KTried: maxK}
	attempts := make([]attempt, 0, maxK)
	rng := newRNG(cfg.Seed)
	for k := 1; k <= maxK; k++ {
		assign, centers, rss, iters, conv := kmeansBest(pts, k, cfg.Restarts, cfg.MaxIters, rng)
		stats.Runs += cfg.Restarts
		stats.Iterations += iters
		attempts = append(attempts, attempt{k, assign, centers, bic(pts, assign, k, rss), conv})
	}
	minBIC, maxBIC := math.Inf(1), math.Inf(-1)
	for _, a := range attempts {
		if !math.IsInf(a.bic, 0) && !math.IsNaN(a.bic) {
			minBIC = math.Min(minBIC, a.bic)
			maxBIC = math.Max(maxBIC, a.bic)
		}
	}
	best := attempts[0]
	if !math.IsInf(minBIC, 0) {
		cut := minBIC + cfg.BICThreshold*(maxBIC-minBIC)
		for _, a := range attempts {
			if a.bic >= cut {
				best = a
				break
			}
		}
	}

	stats.Converged = best.converged
	res := &Result{K: best.k, Assignments: best.assign, Stats: stats}
	// Representative per cluster: interval closest to the centroid.
	counts := make([]int, best.k)
	repIdx := make([]int, best.k)
	repDist := make([]float64, best.k)
	for i := range repDist {
		repDist[i] = math.Inf(1)
	}
	for i, c := range best.assign {
		counts[c]++
		d := sqDist(pts[i], best.centers[c])
		if d < repDist[c] {
			repDist[c], repIdx[c] = d, i
		}
	}
	for c := 0; c < best.k; c++ {
		if counts[c] == 0 {
			continue
		}
		res.Points = append(res.Points, Point{
			Interval: repIdx[c],
			Cluster:  c,
			Weight:   float64(counts[c]) / float64(n),
		})
	}
	sort.Slice(res.Points, func(i, j int) bool {
		if res.Points[i].Weight != res.Points[j].Weight {
			return res.Points[i].Weight > res.Points[j].Weight
		}
		return res.Points[i].Interval < res.Points[j].Interval
	})
	for _, p := range res.Points {
		res.Selected = append(res.Selected, p)
		res.Coverage += p.Weight
		if res.Coverage >= cfg.CoverageTarget {
			break
		}
	}
	return res
}

// project L1-normalizes each BBV and projects it into dims dimensions using
// a deterministic pseudo-random ±1 matrix generated on the fly from the
// (seed, blockID, dim) triple, so the full matrix is never materialized.
func project(vectors []bbv.Vector, dims int, seed int64) [][]float64 {
	out := make([][]float64, len(vectors))
	blocks := make([]int, 0, 64)
	for i, v := range vectors {
		total := v.Total()
		if total == 0 {
			total = 1
		}
		// Iterate blocks in sorted order: float accumulation order must be
		// deterministic for reproducible clustering.
		blocks = blocks[:0]
		for block := range v {
			blocks = append(blocks, block)
		}
		sort.Ints(blocks)
		p := make([]float64, dims)
		for _, block := range blocks {
			nw := v[block] / total
			for d := 0; d < dims; d++ {
				p[d] += nw * projEntry(seed, block, d)
			}
		}
		out[i] = p
	}
	return out
}

// projEntry returns the deterministic projection coefficient in [-1, 1).
func projEntry(seed int64, block, dim int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(block)*0xBF58476D1CE4E5B9 ^ uint64(dim)*0x94D049BB133111EB
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(int64(h)) / math.MaxInt64 // uniform in [-1, 1]
}

// --- k-means ---

// rng is a small deterministic PRNG (xorshift*), local so results do not
// depend on math/rand version behavior.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	if seed == 0 {
		seed = 1
	}
	return &rng{s: uint64(seed)}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// kmeansBest runs k-means `restarts` times and keeps the lowest-RSS run.
// It also reports the total Lloyd iterations across every restart and
// whether the kept run converged before the iteration cap.
func kmeansBest(pts [][]float64, k, restarts, maxIters int, rng *rng) (assign []int, centers [][]float64, rss float64, totalIters int, converged bool) {
	rss = math.Inf(1)
	for r := 0; r < restarts; r++ {
		a, c, s, it, conv := kmeans(pts, k, maxIters, rng)
		totalIters += it
		if s < rss {
			assign, centers, rss, converged = a, c, s, conv
		}
	}
	return assign, centers, rss, totalIters, converged
}

// kmeans is Lloyd's algorithm with k-means++ seeding.
func kmeans(pts [][]float64, k, maxIters int, rng *rng) ([]int, [][]float64, float64, int, bool) {
	n, dims := len(pts), len(pts[0])
	centers := initPP(pts, k, rng)
	assign := make([]int, n)
	counts := make([]int, k)
	iters := 0
	converged := false
	for iter := 0; iter < maxIters; iter++ {
		iters++
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			converged = true
			break
		}
		// Recompute centroids.
		clear(counts)
		for c := range centers {
			for d := range centers[c] {
				centers[c][d] = 0
			}
		}
		for i, p := range pts {
			c := assign[i]
			counts[c]++
			for d := 0; d < dims; d++ {
				centers[c][d] += p[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centers[c], pts[rng.intn(n)])
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centers[c] {
				centers[c][d] *= inv
			}
		}
	}
	var rss float64
	for i, p := range pts {
		rss += sqDist(p, centers[assign[i]])
	}
	return assign, centers, rss, iters, converged
}

// initPP is k-means++ initialization. d2 holds each point's squared
// distance to its nearest center so far, and a new center is folded into it
// once: O(n·k) distances per run, not O(n·k²). The minimum, the summation
// order and the rng draws are those of recomputing every distance each
// round, so the centers are too. The centers are cut from one slab, each
// capped at its own length.
func initPP(pts [][]float64, k int, rng *rng) [][]float64 {
	n, dims := len(pts), len(pts[0])
	slab := make([]float64, k*dims)
	centers := make([][]float64, 0, k)
	take := func(p []float64) []float64 {
		i := len(centers) * dims
		c := slab[i : i+dims : i+dims]
		copy(c, p)
		centers = append(centers, c)
		return c
	}
	first := take(pts[rng.intn(n)])
	d2 := make([]float64, n)
	for i, p := range pts {
		d2[i] = sqDist(p, first)
	}
	for len(centers) < k {
		var sum float64
		for _, d := range d2 {
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
		c := take(pts[idx])
		if len(centers) == k {
			break
		}
		for i, p := range pts {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bic computes the Bayesian Information Criterion of a k-means clustering
// under the spherical Gaussian model used by SimPoint/X-means. Higher is
// better.
func bic(pts [][]float64, assign []int, k int, rss float64) float64 {
	n := len(pts)
	d := len(pts[0])
	if n <= k {
		return math.Inf(-1)
	}
	variance := rss / (float64(n-k) * float64(d))
	if variance < 1e-12 {
		variance = 1e-12
	}
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	var loglik float64
	for _, ni := range counts {
		if ni == 0 {
			continue
		}
		fn := float64(ni)
		loglik += fn*math.Log(fn/float64(n)) -
			fn*float64(d)/2*math.Log(2*math.Pi*variance) -
			(fn-1)*float64(d)/2
	}
	params := float64(k-1) + float64(k*d) + 1 // mixing weights + centroids + variance
	return loglik - params/2*math.Log(float64(n))
}
