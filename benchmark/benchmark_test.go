package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeEnv is an environment over the sliver-sized ScaleTiny campaigns,
// with its scratch under the test's temp dir.
func smokeEnv(t *testing.T, g *golden) *env {
	t.Helper()
	e, err := newEnv(options{size: "full", seed: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.size = smokeSize()
	if g != nil {
		e.golden = g
	}
	return e
}

// lastLine decodes the driver line a run ends with.
func lastLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkLine asserts a single-workload driver line names exactly defs, each
// once, each with its declared unit.
func checkLine(t *testing.T, wl string, line driverLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d on the unmodified tree", wl, line.Correct, line.Attempted, line.Failed)
	}
	want := map[string]string{}
	for _, d := range defs {
		if _, dup := want[d.name]; dup {
			t.Errorf("metric %s declared twice", d.name)
		}
		want[d.name] = d.unit
	}
	for name, m := range line.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]+", wl, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: emitted undeclared metric %s", wl, name)
		} else if m.Unit != unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: %s has unit %q, declared %q", wl, name, m.Unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: declared metric %s was not emitted", wl, name)
	}
}

// TestSmokeEndToEnd runs one repetition of each of the six workloads, each
// as the driver would (one workload per invocation), and checks the result
// line: every end-to-end metric present once, with its unit, and never 0.
func TestSmokeEndToEnd(t *testing.T) {
	e := smokeEnv(t, nil)
	for _, w := range allWorkloads(e) {
		res, err := measure(e, []workload{w}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if code := printResults(&buf, e, res, true); code != 0 {
			t.Errorf("%s: exit code %d\n%s", w.name(), code, buf.String())
		}
		line := lastLine(t, buf.String())
		checkLine(t, w.name(), line, endToEnd)
		for name, m := range line.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name(), name)
			}
		}
		// A workload-specific metric appears in the table of the one
		// workload that produces it; the rest appear everywhere.
		for _, d := range ungated {
			only, specific := specificTo[d.name]
			if got := len(res[0].series(d.name)) > 0; got != (!specific || only == w.name()) {
				t.Errorf("%s: ungated metric %s present=%v", w.name(), d.name, got)
			}
		}
	}
}

// specificTo maps each workload-specific metric to its workload.
var specificTo = map[string]string{
	"rerun_ms_p50":            "sweep-warm",
	"rerun_ms_p75":            "sweep-warm",
	"resubmit_ms_p50":         "fabric-loopback",
	"cpi_err_pct.legacy":      "full-detailed",
	"cpi_err_pct.recommended": "full-detailed",
}

// TestSmokeTraceRepeats makes the traced pass and checks that every
// per-layer metric is emitted once with its unit; then it makes the
// registry-attached repetition and layer replay a second time, in a fresh
// environment, and checks that every exact per-layer metric — simulated
// quantities and counts — repeats bit for bit.
func TestSmokeTraceRepeats(t *testing.T) {
	e := smokeEnv(t, nil)
	lines := map[string]driverLine{}
	for _, w := range allWorkloads(e) {
		var buf bytes.Buffer
		code, err := executeTrace(e, []workload{w}, &buf)
		if err != nil || code != 0 {
			t.Fatalf("%s: traced pass: code %d, err %v\n%s", w.name(), code, err, buf.String())
		}
		lines[w.name()] = lastLine(t, buf.String())
		checkLine(t, w.name(), lines[w.name()], tracedDefs())
	}
	for _, w := range allWorkloads(smokeEnv(t, nil)) {
		lm := layerMetrics{}
		if _, err := tracedRep(w, newTracer(), lm); err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if a, b := lines[w.name()].Metrics[d.name].Value, lm[d.name]; d.exact && a != b {
				t.Errorf("%s: exact metric %s read %v then %v", w.name(), d.name, a, b)
			}
		}
	}
	// The replay must have measured what it claims to on the workload that
	// carries the budget.
	cold := lines["sweep-cold"].Metrics
	for _, name := range []string{"asm.assemble_ms", "sim.step_ns_per_inst", "bbv.vectors", "simpoint.points",
		"ckpt.bytes", "boom.new_us", "boom.cycles", "power.estimate_ns", "core.profile_s", "core.run_s",
		"artifact.put_ms.checkpoint", "artifact.bytes.measure", "artifact.misses", "report.render_ms"} {
		if cold[name].Value <= 0 {
			t.Errorf("sweep-cold: %s = %v, want > 0", name, cold[name].Value)
		}
	}
	if n := lines["sweep-warm"].Metrics["artifact.hits"].Value; n <= 0 {
		t.Errorf("sweep-warm: artifact.hits = %v, want > 0", n)
	}
	if n := lines["fabric-loopback"].Metrics["fabric.cells"].Value; n != 4 {
		t.Errorf("fabric-loopback: fabric.cells = %v, want 4 (2 profile + 2 measure)", n)
	}
}

// TestPerturbedDigestFails: a digest file that disagrees with the tree
// turns into failed operations and a non-zero exit, never a quiet pass.
func TestPerturbedDigestFails(t *testing.T) {
	e := smokeEnv(t, nil)
	key := sweepKey(sweepCampaign(e, 0, e.size.names, e.size.scale))
	var sb strings.Builder
	for _, ln := range strings.Split(goldenFile, "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok && k == key {
			ln = k + " " + strings.Repeat("0", len(v))
		}
		sb.WriteString(ln + "\n")
	}
	e.golden = parseGolden(sb.String())
	if e.golden.want[key] == "" {
		t.Fatalf("golden file does not pin %s", key)
	}
	res, err := measure(e, allWorkloads(e)[:1], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code := printResults(&buf, e, res, true)
	line := lastLine(t, buf.String())
	if code == 0 || line.Failed == 0 || line.Correct {
		t.Errorf("perturbed digest: code %d, failed %d, correct %v", code, line.Failed, line.Correct)
	}
}

// TestGoldenMatchesEquivalenceSuite: the tiny-scale sweep digest pinned
// here is the sweepjson line of the repo's equivalence suite, so the
// fabric-loopback result is anchored to the same bytes as every other
// conformance test.
func TestGoldenMatchesEquivalenceSuite(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "testdata", "equivalence_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := parseGolden(string(raw)).want["sweepjson"]
	if got := parseGolden(goldenFile).want["sweep/tiny"]; got == "" || got != want {
		t.Errorf("sweep/tiny is %q, testdata/equivalence_golden.txt sweepjson is %q", got, want)
	}
}

// benchmarkJSON mirrors the driver's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables in step, and inside the driver's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("size %d, run_seconds %d, paths %v", len(raw), doc.RunSeconds, doc.Paths)
	}

	var names []string
	for _, w := range allWorkloads(&env{}) {
		names = append(names, w.name())
	}
	var listed []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(listed, names) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", listed, names)
	}

	check := func(section string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", section, len(got), len(want))
			return
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %s %s %s", section, i, m, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: %s / %s outside the driver's character set", section, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: %s bound %v, the harness %v (must be in (0, 0.25])", section, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: %s carries a bound; per-layer metrics have none", section, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, tracedDefs(), false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), tracedDefs()...) {
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestDriverFlags: the driver's "--trace 0|1" and the hand-typed bare
// "-trace" both parse.
func TestDriverFlags(t *testing.T) {
	for _, tc := range []struct {
		args  string
		trace bool
	}{
		{"-size driver --workload dse-cold --seed 7 --seconds 10 --trace 0", false},
		{"-size driver --workload dse-cold --seed 7 --seconds 10 --trace 1", true},
		{"-trace -workload dse-cold", true},
		{"-workload dse-cold -trace", true},
		{"-workload dse-cold", false},
	} {
		o, err := parseFlags(strings.Fields(tc.args), &bytes.Buffer{})
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if o.trace != tc.trace || o.workload != "dse-cold" {
			t.Errorf("%q: trace=%v workload=%q", tc.args, o.trace, o.workload)
		}
	}
	if _, err := parseFlags([]string{"-trace", "-aa"}, &bytes.Buffer{}); err == nil {
		t.Error("-trace -aa must be refused")
	}
}

// TestDSESampleIsSeededAndBalanced: the same seed draws the same points,
// another seed draws others, and every draw covers distinct (rob, int-iq,
// predictor) triples — all 32 at full size, the same 8 at every seed at
// driver size.
func TestDSESampleIsSeededAndBalanced(t *testing.T) {
	draw := func(sz size, seed int64) (names []string, triples map[string]bool) {
		pts, err := (&dseWL{e: &env{size: sz, seed: seed}}).sample()
		if err != nil {
			t.Fatal(err)
		}
		triples = map[string]bool{}
		for _, p := range pts {
			names = append(names, p.Name)
			triples[p.Name[strings.Index(p.Name, "+int-iq="):]] = true
		}
		return names, triples
	}
	for _, sz := range []size{fullSize(), driverSize()} {
		a, ta := draw(sz, 3)
		b, _ := draw(sz, 3)
		c, tc := draw(sz, 4)
		if !reflect.DeepEqual(a, b) {
			t.Error("one seed drew two different samples")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("two seeds drew the same sample")
		}
		if len(a) != sz.dsePoints || len(ta) != sz.dsePoints || !reflect.DeepEqual(ta, tc) {
			t.Errorf("%d points over %d distinct triples (want %d), the same at both seeds: %v",
				len(a), len(ta), sz.dsePoints, reflect.DeepEqual(ta, tc))
		}
	}
}
