package dse

import (
	"math"
	"testing"

	"repro/internal/boom"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// frontEndParams are the axes that size or choose the predictor, BTB and
// RAS. Every other axis is back end or memory.
var frontEndParams = map[string]bool{"btb": true, "predictor": true, "ras": true}

// backEndExtremes is each other axis's smallest and largest value that
// still validates on MediumBOOM (or a size past which nothing in the
// model changes shape).
var backEndExtremes = map[string][2]string{
	"dcache-kib":      {"1", "256"},
	"dcache-mshrs":    {"1", "64"},
	"dcache-ways":     {"1", "64"},
	"fetch-buffer":    {"4", "512"},
	"fetch-width":     {"2", "16"},
	"fp-iq":           {"1", "128"},
	"fp-issue-width":  {"1", "16"},
	"fp-phys":         {"33", "512"},
	"icache-kib":      {"1", "256"},
	"icache-ways":     {"1", "64"},
	"int-iq":          {"2", "128"},
	"int-issue-width": {"1", "20"},
	"int-phys":        {"33", "512"},
	"l2-kib":          {"1", "8192"},
	"l2-ways":         {"1", "64"},
	"ldq":             {"1", "128"},
	"lsq":             {"1", "128"},
	"mem-iq":          {"1", "128"},
	"mem-issue-width": {"1", "12"},
	"rob":             {"4", "1024"},
	"stq":             {"1", "128"},
	"width":           {"1", "4"},
}

// TestFrontEndIsAFunctionOfTheTrace: fetch trains the predictor, BTB and
// RAS in program order with architectural outcomes, so a full run's
// Branches, Mispredicts and BTBMisses depend on the trace and the
// front-end axes alone. Every other axis, at its min and its max, must
// leave all three bit-identical to MediumBOOM's on every workload, however
// far the cycle count moves. This is what makes boom.Core.Warm's predictor
// half exact; a timing-dependent leak into the front end fails here.
func TestFrontEndIsAFunctionOfTheTrace(t *testing.T) {
	var variants []boom.Config
	for _, p := range params {
		if frontEndParams[p.name] {
			continue
		}
		ext, ok := backEndExtremes[p.name]
		if !ok {
			t.Fatalf("axis %q has no extremes here: add its min and max, or list it as a front-end axis", p.name)
		}
		pts, err := Expand(Spec{Base: "MediumBOOM", Axes: []Axis{{p.name, ext[:]}}})
		if err != nil {
			t.Fatalf("axis %q at %v: %v", p.name, ext, err)
		}
		variants = append(variants, pts...)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.Build(name, workloads.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := w.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			var tr []sim.Retired
			if _, err := cpu.RunTrace(-1, func(r *sim.Retired) { tr = append(tr, *r) }); err != nil {
				t.Fatal(err)
			}
			want := frontEndCounts(t, tr, boom.MediumBOOM())
			for _, cfg := range variants {
				if got := frontEndCounts(t, tr, cfg); got != want {
					t.Errorf("%s: branches/mispredicts/BTB misses %v, MediumBOOM %v", cfg.Name, got, want)
				}
			}
		})
	}
}

// frontEndCounts runs a recorded trace to its end on cfg and returns its
// Branches, Mispredicts and BTBMisses.
func frontEndCounts(t *testing.T, tr []sim.Retired, cfg boom.Config) [3]uint64 {
	t.Helper()
	c, err := boom.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	next := func(r *sim.Retired) bool {
		if pos == len(tr) {
			return false
		}
		*r = tr[pos]
		pos++
		return true
	}
	if _, err := c.Run(next, math.MaxUint64); err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	st := c.Stats()
	return [3]uint64{st.Branches, st.Mispredicts, st.BTBMisses}
}
