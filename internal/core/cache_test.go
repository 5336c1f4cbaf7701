package core

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// corruptAllCacheFiles flips one byte in every artifact under dir.
func corruptAllCacheFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmCacheSweepDoesNoWork is the headline economics claim, stated as
// counts that repeat exactly on any host: a warm-cache sweep over every
// registered workload retires no instruction in either simulator, runs no
// k-means, hits every stage artifact and misses none — it goes straight to
// report generation — with exactly equal results (timing fields included:
// hit costs are restored from the cache, so even the speedup table
// reproduces byte-for-byte). How much wall clock that saves is the
// benchmark's question (`sweep-warm`), not this test's.
func TestWarmCacheSweepDoesNoWork(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fc := DefaultFlowConfig()
	names := workloads.Names()
	cfgs := []boom.Config{boom.MediumBOOM()}

	coldSW, err := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir)).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	warmSW, err := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir), WithMetrics(reg)).Sweep(ctx, tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}

	profiles, cells := int64(len(names)), int64(len(names)*len(cfgs))
	for _, c := range []struct {
		counter string
		want    int64
	}{
		{"boom.retired", 0},
		{"sim.insts", 0},
		// k-means runs only in the select stage's compute body, on a miss
		// (simpoint.kmeans.runs reports the selection's stats, cached or not).
		{"artifact.select.miss", 0},
		{"artifact.miss", 0},
		{"artifact.bbv.hit", profiles},
		{"artifact.select.hit", profiles},
		{"artifact.checkpoint.hit", profiles},
		{"artifact.measure.hit", cells},
		{"artifact.hit", 3*profiles + cells},
	} {
		if got := reg.Counter(c.counter).Value(); got != c.want {
			t.Errorf("warm sweep: %s = %d, want %d", c.counter, got, c.want)
		}
	}
	if !reflect.DeepEqual(coldSW.Results, warmSW.Results) {
		t.Error("warm sweep results differ from cold")
	}
	for name, pa := range coldSW.Profiles {
		pb := warmSW.Profiles[name]
		if pa.WallNS != pb.WallNS || pa.CacheKey != pb.CacheKey {
			t.Errorf("%s: warm profile (wall %d, key %s) differs from cold (wall %d, key %s)",
				name, pb.WallNS, pb.CacheKey, pa.WallNS, pa.CacheKey)
		}
		if !reflect.DeepEqual(pa.Selection, pb.Selection) {
			t.Errorf("%s: warm selection differs from cold", name)
		}
	}

	// What "hits every stage artifact" does not mean: the warm sweep
	// verified the bbv and checkpoint entries for their costs and read
	// neither payload, since no cell needed measuring. Everything a report
	// prints is there all the same, and the cost accounted as saved is the
	// cold sweep's whole compute cost.
	var saved int64
	for name, pa := range coldSW.Profiles {
		pb := warmSW.Profiles[name]
		if pb.Vectors != nil || pb.MAVs != nil || pb.Checkpoints != nil || pb.WarmupInsts != nil {
			t.Errorf("%s: the warm sweep read a payload nothing asked for", name)
		}
		if pa.Vectors == nil || pa.Checkpoints == nil || pa.WarmupInsts == nil {
			t.Errorf("%s: the cold sweep measured and must hold its payloads", name)
		}
		if pb.Selection == nil || pb.TotalInsts == 0 || pb.TotalInsts != pa.TotalInsts || pb.Interval != pa.Interval {
			t.Errorf("%s: warm profile reports %d insts / interval %d, cold %d / %d",
				name, pb.TotalInsts, pb.Interval, pa.TotalInsts, pa.Interval)
		}
		saved += pa.WallNS
	}
	for _, perCfg := range coldSW.Results {
		for _, res := range perCfg {
			saved += res.MeasureWallNS
		}
	}
	if got := reg.Counter("artifact.saved_ns").Value(); got != saved {
		t.Errorf("warm sweep: artifact.saved_ns = %d, want the cold sweep's compute cost %d", got, saved)
	}
}

// TestCachedMatchesUncached: attaching a cache must not change a single
// computed bit relative to the plain pipeline — only the wall-clock
// bookkeeping (and the cache fingerprint) may differ.
func TestCachedMatchesUncached(t *testing.T) {
	ctx := context.Background()
	fc := DefaultFlowConfig()
	cfg := boom.LargeBOOM()
	w1, err := workloads.Build("qsort", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workloads.Build("qsort", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}

	plain := New(fc, WithScale(workloads.ScaleTiny))
	cached := New(fc, WithScale(workloads.ScaleTiny), WithCache(t.TempDir()))

	p1, err := plain.Profile(ctx, w1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cached.Profile(ctx, w2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Vectors, p2.Vectors) ||
		!reflect.DeepEqual(p1.Selection, p2.Selection) ||
		!reflect.DeepEqual(p1.Checkpoints, p2.Checkpoints) ||
		!reflect.DeepEqual(p1.WarmupInsts, p2.WarmupInsts) ||
		p1.TotalInsts != p2.TotalInsts || p1.NumBlocks != p2.NumBlocks {
		t.Fatal("cached profile differs from uncached")
	}
	if p2.CacheKey == "" {
		t.Fatal("cached profile has no CacheKey")
	}

	r1, err := plain.Run(ctx, p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cached.Run(ctx, p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *r1, *r2
	a.MeasureWallNS, b.MeasureWallNS = 0, 0
	if !reflect.DeepEqual(&a, &b) {
		t.Fatal("cached result differs from uncached")
	}
}

// TestCacheVerifyPassesAndDetectsDivergence: -cache-verify semantics. A
// clean warm pass verifies silently; a poisoned artifact (valid entry,
// wrong content — the case checksums cannot catch) fails loudly.
func TestCacheVerifyPassesAndDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fc := DefaultFlowConfig()
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir))
	if _, err := cold.Profile(ctx, w); err != nil {
		t.Fatal(err)
	}

	verify := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir), WithCacheVerify(true))
	if _, err := verify.Profile(ctx, w); err != nil {
		t.Fatalf("verify pass over a clean cache failed: %v", err)
	}

	// Poison the selection artifact with a well-formed but wrong payload.
	bogus := &simpoint.Result{
		K:        1,
		Coverage: 1,
		Points:   []simpoint.Point{{Interval: 0, Cluster: 0, Weight: 1}},
		Selected: []simpoint.Point{{Interval: 0, Cluster: 0, Weight: 1}},
	}
	var buf bytes.Buffer
	if err := simpoint.EncodeResult(&buf, bogus); err != nil {
		t.Fatal(err)
	}
	keys := cold.profileKeys(w, sampling.Spec{})
	if err := cold.Cache().Put(keys.sel, buf.Bytes(), 1); err != nil {
		t.Fatal(err)
	}

	_, err = verify.Profile(ctx, w)
	if err == nil {
		t.Fatal("verify accepted a poisoned artifact")
	}
	if !strings.Contains(err.Error(), "cache verify") {
		t.Fatalf("poisoned artifact error %q does not mention cache verify", err)
	}

	// Without verification the poisoned-but-decodable entry is simply
	// served — that asymmetry is exactly what -cache-verify exists for —
	// while a fresh cold run elsewhere stays correct.
	if _, err := cold.Profile(ctx, w); err != nil {
		t.Fatalf("non-verify run over poisoned cache errored: %v", err)
	}
}

// TestCacheCorruptEntryRecomputes: flipping bits on disk must degrade to
// a recompute-and-heal, never a wrong result.
func TestCacheCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fc := DefaultFlowConfig()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	r := New(fc, WithScale(workloads.ScaleTiny), WithCache(dir))
	p1, err := r.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	corruptAllCacheFiles(t, dir)
	p2, err := r.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Selection, p2.Selection) {
		t.Fatal("recompute after corruption changed the selection")
	}
	// The healed entries serve the next run again.
	p3, err := r.Profile(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Selection, p3.Selection) {
		t.Fatal("healed cache served a different selection")
	}
}
