package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// The key-first warm path's contract beyond TestWarmCacheSweepDoesNoWork:
// what a sweep whose every cell hits may leave unread, what it must still
// verify, and that every way of being wrong about "every cell hits" ends
// in the ordinary path with the ordinary result.

var warmNames = []string{"sha", "bitcount", "qsort"}

// entryPath is the file DESIGN §5 says a key lives in.
func entryPath(dir string, k artifact.Key) string {
	hex := k.Hex()
	return filepath.Join(dir, k.Stage, hex[:2], fmt.Sprintf("%s.v%d", hex[2:], k.Version))
}

// flipByte flips one byte of a file in place (negative off: from the end).
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// warmedCache runs the 3 × 3 tiny campaign into a fresh cache and returns
// it with the clean sweep and each workload's key chain.
func warmedCache(t *testing.T) (dir string, camp Campaign, clean *Sweep, chains map[string]profileKeys) {
	t.Helper()
	dir = t.TempDir()
	camp = tcamp(warmNames, boom.Configs())
	r := New(DefaultFlowConfig(), WithCache(dir))
	clean, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	chains = map[string]profileKeys{}
	for _, name := range warmNames {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		chains[name] = r.profileKeys(w, sampling.Spec{})
	}
	return dir, camp, clean, chains
}

// sameSweep fails unless got reports exactly what want does: every cell's
// canonical payload bytes and timing, every profile's reported fields.
func sameSweep(t *testing.T, want, got *Sweep) {
	t.Helper()
	for _, cfg := range want.ConfigNames {
		for _, name := range want.Names {
			a, b := want.Results[cfg][name], got.Results[cfg][name]
			if b == nil || !bytes.Equal(payloadOf(t, a), payloadOf(t, b)) || a.MeasureWallNS != b.MeasureWallNS {
				t.Errorf("%s/%s differs from the clean run", cfg, name)
			}
		}
	}
	for name, pa := range want.Profiles {
		pb := got.Profiles[name]
		if pb == nil || pa.TotalInsts != pb.TotalInsts || pa.Interval != pb.Interval || pa.CacheKey != pb.CacheKey ||
			pa.WallNS != pb.WallNS || !reflect.DeepEqual(pa.Selection, pb.Selection) {
			t.Errorf("%s: profile differs from the clean run", name)
		}
	}
	if want.SpeedupOf().Speedup() != got.SpeedupOf().Speedup() {
		t.Errorf("speedup %v, clean run %v", got.SpeedupOf().Speedup(), want.SpeedupOf().Speedup())
	}
}

func counters(t *testing.T, reg *metrics.Registry, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestWarmSweepAllocCeiling pins the gain in tier-1: a warm 3 × 3 tiny
// sweep on one P allocates under 365 KB (measured 181 KB; the same 2×
// margin the 600 KB ceiling gave the 297 KB it had before the generators
// stopped running their reference in Build). Reading, inflating and
// decoding the three chains it reports nothing from took 4.19 MB — 1.05 MB
// of it with the parsers' 1 MiB scanner buffers gone.
func TestWarmSweepAllocCeiling(t *testing.T) {
	dir, camp, _, _ := warmedCache(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ceiling = 365_000
	var best uint64
	for i := 0; i < 3; i++ { // a stray background allocation must not decide it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(DefaultFlowConfig(), WithCache(dir), WithParallelism(1)).Sweep(context.Background(), camp); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
	}
	t.Logf("warm 3x3 tiny sweep allocated %d bytes", best)
	if best > ceiling {
		t.Errorf("warm 3x3 tiny sweep allocated %d bytes, ceiling %d", best, ceiling)
	}
}

// TestWarmSweepCorruptionMatrix: one row per entry kind. Each is caught in
// the sweep that would have reported from it, costs exactly the work its
// stage stands for, and changes no reported byte.
func TestWarmSweepCorruptionMatrix(t *testing.T) {
	ctx := context.Background()
	n := int64(len(warmNames))

	t.Run("checkpoint payload byte", func(t *testing.T) {
		dir, camp, clean, chains := warmedCache(t)
		path := entryPath(dir, chains["bitcount"].ckpt)
		flipByte(t, path, -1)
		reg := metrics.NewRegistry()
		got, err := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg)).Sweep(ctx, camp)
		if err != nil {
			t.Fatal(err)
		}
		got.Profiles["bitcount"].WallNS = clean.Profiles["bitcount"].WallNS // a recomputed stage reports its own fresh cost
		sameSweep(t, clean, got)
		counters(t, reg, map[string]int64{
			"artifact.evict":           1,
			"artifact.miss":            1,
			"artifact.checkpoint.miss": 1,
			"artifact.checkpoint.hit":  n - 1,
			"artifact.bbv.hit":         n, // the checkpoint pass needs the selection, not the vectors
			"artifact.measure.hit":     int64(camp.Cells()),
			"boom.retired":             0,
		})
		if reg.Counter("sim.insts").Value() == 0 {
			t.Error("the evicted checkpoint stage did not recompute")
		}
		if _, ok := artifact.Open(dir).Cost(chains["bitcount"].ckpt); !ok {
			t.Error("the recomputed checkpoint entry was not rewritten")
		}
	})

	t.Run("bbv cost field", func(t *testing.T) {
		dir, camp, clean, chains := warmedCache(t)
		flipByte(t, entryPath(dir, chains["sha"].bbv), 16) // the cost header; no payload byte moves
		reg := metrics.NewRegistry()
		got, err := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg)).Sweep(ctx, camp)
		if err != nil {
			t.Fatal(err)
		}
		// The recomputed stage reports its own fresh cost; everything else
		// — every cell, every other profile — is the clean run's.
		got.Profiles["sha"].WallNS = clean.Profiles["sha"].WallNS
		sameSweep(t, clean, got)
		counters(t, reg, map[string]int64{
			"artifact.evict":          1,
			"artifact.miss":           1,
			"artifact.bbv.miss":       1,
			"artifact.bbv.hit":        n - 1,
			"artifact.checkpoint.hit": n,
			"artifact.measure.hit":    int64(camp.Cells()),
			"boom.retired":            0,
		})
		if got.Profiles["sha"].Vectors == nil || got.Profiles["sha"].Checkpoints != nil {
			t.Error("exactly the recomputed stage's payload should be held")
		}
	})

	t.Run("measure entries behind a passing probe", func(t *testing.T) {
		dir, camp, clean, chains := warmedCache(t)
		for _, cfg := range camp.Configs {
			flipByte(t, entryPath(dir, measureKey(chains["qsort"].ckpt.Hex(), cfg, DefaultFlowConfig().Lib)), -1)
		}
		reg := metrics.NewRegistry()
		got, err := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg), WithParallelism(4)).Sweep(ctx, camp)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range camp.ConfigNames() { // recomputed cells report their own fresh cost
			got.Results[cfg]["qsort"].MeasureWallNS = clean.Results[cfg]["qsort"].MeasureWallNS
		}
		sameSweep(t, clean, got)
		counters(t, reg, map[string]int64{
			"artifact.evict":          3,
			"artifact.measure.miss":   3,
			"artifact.miss":           3,
			"artifact.measure.hit":    int64(camp.Cells()) - 3,
			"artifact.bbv.hit":        n + 1, // the three cells share one load of the chain
			"artifact.checkpoint.hit": n + 1,
			"artifact.select.hit":     n, // not re-read
			"sim.insts":               0, // the chain was read, not recomputed
		})
		if p := got.Profiles["qsort"]; p.Vectors == nil || p.Checkpoints == nil || p.WarmupInsts == nil {
			t.Error("the measured workload's payloads should be held")
		}
		if p := got.Profiles["sha"]; p.Vectors != nil || p.Checkpoints != nil {
			t.Error("a workload whose cells all hit should hold no payload")
		}
	})
}

// TestCacheVerifyIgnoresTheProbe: -cache-verify on a warm cache still
// recomputes and byte-compares every stage of every chain and every cell.
func TestCacheVerifyIgnoresTheProbe(t *testing.T) {
	dir, camp, clean, _ := warmedCache(t)
	reg := metrics.NewRegistry()
	got, err := New(DefaultFlowConfig(), WithCache(dir), WithCacheVerify(true), WithMetrics(reg)).Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	sameSweep(t, clean, got)
	counters(t, reg, map[string]int64{
		"artifact.verify.ok":   int64(3*len(warmNames) + camp.Cells()),
		"artifact.verify.fail": 0,
	})
	if reg.Counter("boom.retired").Value() == 0 || reg.Counter("sim.insts").Value() == 0 {
		t.Error("a verifying sweep must recompute")
	}
}
