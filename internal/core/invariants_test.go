package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// TestFlowUnderInvariants is the gate behind `make invariants`: the tiny
// 11×3 campaign and the three pinned full runs, with boom's per-cycle
// invariant checker on in every core the flow builds — through checkpoint
// restore, warm-up, ResetStats, measurement and, at -j 1, the Reset reuse
// of one core for every point of a cell. Every digest must equal its line
// in testdata/equivalence_golden.txt. A checked core steps every cycle, so
// this also proves that quiet-cycle skipping equals stepping through the
// whole flow, not only through boom's own tests.
//
// Stepping every cycle with the checks on costs ~17 s on a 2-CPU host, so
// the gate is opt-in via BOOM_INVARIANTS=1, mirroring BOOM_FIDELITY.
func TestFlowUnderInvariants(t *testing.T) {
	if os.Getenv("BOOM_INVARIANTS") == "" {
		t.Skip("set BOOM_INVARIANTS=1 to run the flow under boom's invariant checker (minutes)")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "equivalence_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok {
			want[k] = v
		}
	}
	check := func(key string, payload []byte) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want[key] {
			t.Errorf("%s: digest %s under invariant checking, golden %s", key, got, want[key])
		}
	}
	stats := func(s *boom.Stats) []byte {
		var buf bytes.Buffer
		if err := boom.EncodeStats(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	core.SetCheckInvariants(true)
	defer core.SetCheckInvariants(false)
	ctx := context.Background()
	scale := workloads.ScaleTiny
	r := core.New(core.FlowConfigFor(scale), core.WithParallelism(1))
	camp := core.NewCampaign(workloads.Names(), boom.Configs(), scale)
	sw, err := r.Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range camp.Configs {
		for _, name := range camp.Workloads {
			check("simpoint/"+cfg.Name+"/"+name, stats(sw.Results[cfg.Name][name].Stats))
		}
	}
	enc, err := serve.EncodeSweep("equiv", scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	check("sweepjson", enc)

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
		res, err := r.RunFull(ctx, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("full/"+fc.cfg+"/"+fc.name, stats(res.Stats))
	}
}
