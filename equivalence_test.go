// Equivalence suite: pins the detailed-model results at counter-level
// bit-identity. The golden digests in testdata/equivalence_golden.txt were
// generated from the pre-optimization cycle model; any hot-path rewrite
// (decode cache, µop window, batched accumulators) must keep every digest
// byte-identical or this test names the exact (config, workload) cell that
// drifted.
//
// Two layers of digest per sweep cell:
//   - the canonical boom.EncodeStats bytes of the weighted-aggregate Stats
//     (every activity counter, not just headline IPC), and
//   - the canonical serve.EncodeSweep JSON of the whole sweep (what boomd
//     clients and the report tables consume).
//
// Full-detail runs (no SimPoint sampling) are pinned for a subset so the
// non-sampled path is covered too.
//
// Regenerate with: go test -run TestEquivalenceGolden -update-equiv .
package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

var updateEquiv = flag.Bool("update-equiv", false, "rewrite testdata/equivalence_golden.txt from the current model")

func statsDigest(t *testing.T, s *boom.Stats) string {
	t.Helper()
	var buf bytes.Buffer
	if err := boom.EncodeStats(&buf, s); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// equivalenceDigests runs the tiny-scale sweep over every workload × config
// plus full-detail runs for a subset, and returns one "key digest" line per
// pinned artifact, sorted by key.
func equivalenceDigests(t *testing.T) []string {
	t.Helper()
	scale := workloads.ScaleTiny
	r := core.New(core.FlowConfigFor(scale))
	names := workloads.Names()
	configs := boom.Configs()
	sw, err := r.Sweep(context.Background(), core.NewCampaign(names, configs, scale))
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, cfg := range configs {
		for _, name := range names {
			res := sw.Results[cfg.Name][name]
			if res == nil || res.Stats == nil {
				t.Fatalf("sweep missing result for %s/%s", cfg.Name, name)
			}
			lines = append(lines, fmt.Sprintf("simpoint/%s/%s %s", cfg.Name, name, statsDigest(t, res.Stats)))
		}
	}

	enc, err := serve.EncodeSweep("equiv", scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, fmt.Sprintf("sweepjson %x", sha256.Sum256(enc)))

	// Full-detail coverage: the non-sampled path, one cell per config on
	// workloads with distinct branch/memory character.
	for _, fc := range []struct{ cfg, name string }{
		{"MediumBOOM", "sha"},
		{"LargeBOOM", "matmult"},
		{"MegaBOOM", "qsort"},
	} {
		cfg, err := boom.ConfigByName(fc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.Build(fc.name, scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunFull(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("full/%s/%s %s", fc.cfg, fc.name, statsDigest(t, res.Stats)))
	}

	sort.Strings(lines)
	return lines
}

func TestEquivalenceGolden(t *testing.T) {
	golden := filepath.Join("testdata", "equivalence_golden.txt")
	got := strings.Join(equivalenceDigests(t), "\n") + "\n"

	if *updateEquiv {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-equiv): %v", err)
	}
	if string(want) == got {
		return
	}
	// Diff by key so a drift names the exact cell, not just "mismatch".
	wantBy := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok {
			wantBy[k] = v
		}
	}
	for _, ln := range strings.Split(strings.TrimSpace(got), "\n") {
		k, v, _ := strings.Cut(ln, " ")
		switch wv, ok := wantBy[k]; {
		case !ok:
			t.Errorf("%s: not in golden", k)
		case wv != v:
			t.Errorf("%s: digest drifted\n  golden %s\n  got    %s", k, wv, v)
		}
		delete(wantBy, k)
	}
	for k := range wantBy {
		t.Errorf("%s: missing from current run", k)
	}
	if !t.Failed() {
		t.Error("golden mismatch (ordering/format)")
	}
}
