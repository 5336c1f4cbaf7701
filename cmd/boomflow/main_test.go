package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/simpoint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// boomflow drives the whole command in-process at tiny scale and returns
// its stdout.
func boomflow(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout bytes.Buffer
	err := run(append([]string{"-scale", "tiny"}, args...), &stdout, io.Discard)
	return stdout.String(), err
}

// mustRun is boomflow for invocations that have to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := boomflow(t, args...)
	if err != nil {
		t.Fatalf("boomflow %q: %v", args, err)
	}
	return out
}

// field returns what follows label on the report line that starts with it.
func field(t *testing.T, out, label string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("no %q line in:\n%s", label, out)
	return ""
}

// TestSimpointReportGolden pins the default-mode report. Nothing on stdout
// varies run to run (wall-clock figures only appear under -metrics), so the
// compare is exact. Regenerate with:
// go test ./cmd/boomflow -run TestSimpointReportGolden -update
func TestSimpointReportGolden(t *testing.T) {
	got := mustRun(t, "-bench", "sha", "-config", "medium")
	golden := filepath.Join("testdata", "sha_medium_tiny.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s (regenerate with -update if intended)\ngot:\n%s", golden, got)
	}
}

// TestFullAndSimpointAgree: the two measuring modes describe the same
// workload on the same config and both break tile power down into the 13
// analysed components plus Other.
func TestFullAndSimpointAgree(t *testing.T) {
	sp := mustRun(t, "-bench", "qsort", "-config", "large")
	full := mustRun(t, "-bench", "qsort", "-config", "large", "-mode", "full")
	for _, label := range []string{"workload", "config"} {
		if a, b := field(t, sp, label), field(t, full, label); a != b {
			t.Errorf("%s line: simpoint %q, full %q", label, a, b)
		}
	}
	if a, b := field(t, sp, "mode"), field(t, full, "mode"); a != "simpoint" || b != "full" {
		t.Errorf("mode lines: %q and %q", a, b)
	}
	comps := boom.AnalyzedComponents()
	if len(comps) != 13 {
		t.Fatalf("%d analysed components, want 13", len(comps))
	}
	for mode, out := range map[string]string{"simpoint": sp, "full": full} {
		for _, c := range comps {
			field(t, out, "  "+c.String()+" ")
		}
		field(t, out, "  Other ")
		if n := strings.Count(out, "%\n"); n != len(comps)+1 {
			t.Errorf("-mode %s: %d component rows, want %d", mode, n, len(comps)+1)
		}
	}
}

// TestProfileRoundTrip: what -mode profile -out writes is what the
// format readers read back, and there is one checkpoint per printed
// simulation point.
func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "-bench", "fft", "-mode", "profile", "-out", dir)
	intervals, _ := strconv.Atoi(field(t, out, "intervals"))
	points, _ := strconv.Atoi(strings.Fields(field(t, out, "simpoints"))[0])
	if intervals == 0 || points == 0 {
		t.Fatalf("no intervals/simpoints in:\n%s", out)
	}

	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	vectors, err := bbv.ReadBB(open("fft.bb"))
	if err != nil || len(vectors) != intervals {
		t.Errorf("fft.bb: %d vectors, %v; want %d", len(vectors), err, intervals)
	}
	selected, err := simpoint.ReadSimPoints(open("fft.simpoints"), open("fft.weights"))
	if err != nil || len(selected) != points {
		t.Errorf(".simpoints/.weights: %d points, %v; want %d", len(selected), err, points)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "fft-sp*.ckpt"))
	if err != nil || len(ckpts) != points {
		t.Fatalf("%d checkpoint files, %v; want %d", len(ckpts), err, points)
	}
	for _, path := range ckpts {
		if _, err := ckpt.Deserialize(open(filepath.Base(path))); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if !strings.Contains(out, "wrote "+path+" (") {
			t.Errorf("stdout does not name %s", path)
		}
	}
}

// TestProfileReportsIntervalUsed: with -interval the header and every
// start-inst are in units of the override, not of the workload's default.
func TestProfileReportsIntervalUsed(t *testing.T) {
	def := mustRun(t, "-bench", "sha", "-mode", "profile")
	const override = 10000
	if field(t, def, "interval size") == strconv.Itoa(override) {
		t.Fatalf("sha's default interval is already %d; pick another override", override)
	}
	out := mustRun(t, "-bench", "sha", "-mode", "profile", "-interval", strconv.Itoa(override))
	if got := field(t, out, "interval size"); got != strconv.Itoa(override) {
		t.Errorf("interval size %s, want %d", got, override)
	}
	_, table, _ := strings.Cut(out, "warm-up\n")
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) < 2 {
		t.Fatalf("no selection rows in:\n%s", out)
	}
	for _, row := range rows {
		var rank, interval, start int64
		if _, err := fmt.Sscan(row, &rank, &interval, &start); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		if start != interval*override {
			t.Errorf("row %q: start-inst %d, want %d×%d", row, start, interval, override)
		}
	}
}

// TestTraceIsTheWholeOutput: -mode full -trace N prints lifecycle lines
// and no report.
func TestTraceIsTheWholeOutput(t *testing.T) {
	out := mustRun(t, "-bench", "sha", "-mode", "full", "-trace", "50")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "seq") || len(lines) < 51 {
		t.Errorf("want a header and 50 lifecycle lines, got %d lines starting %q", len(lines), lines[0])
	}
	if strings.Contains(out, "tile power") || strings.Contains(out, "component power") {
		t.Errorf("trace run printed a report:\n%s", out)
	}
}

// TestCacheRoundTrip: a warm -cache run prints exactly what the cold one
// did, in the measuring and the profiling mode.
func TestCacheRoundTrip(t *testing.T) {
	for _, mode := range []string{"simpoint", "profile"} {
		args := []string{"-bench", "bitcount", "-mode", mode, "-cache", t.TempDir()}
		if cold, warm := mustRun(t, args...), mustRun(t, args...); cold != warm {
			t.Errorf("-mode %s: warm-cache output differs from cold\ncold:\n%s\nwarm:\n%s", mode, cold, warm)
		}
	}
}

// TestUsageErrors: a flag combination that would otherwise be silently
// ignored, or only fail after the run, is refused up front with an error
// naming the flag, and nothing is printed.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-mode", "fast"}, "-mode"},
		{[]string{"-predictor", "perceptron"}, "-predictor"},
		{[]string{"-config", "giga"}, "giga"},
		{[]string{"-cache-verify"}, "-cache"},
		{[]string{"-out", t.TempDir()}, "-out requires -mode profile"},
		{[]string{"-mode", "full", "-out", t.TempDir()}, "-out requires -mode profile"},
		{[]string{"-trace", "10"}, "-trace requires -mode full"},
		{[]string{"-mode", "profile", "-trace", "10"}, "-trace requires -mode full"},
		{[]string{"-retries", "3"}, "-retries supervises sweep"},
		{[]string{"-keep-going"}, "-keep-going supervises sweep"},
		{[]string{"-metrics", "text", "-metrics-out", filepath.Join(t.TempDir(), "no-such-dir", "m.txt")}, "-metrics-out"},
	} {
		out, err := boomflow(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%q: printed %q before failing", tc.args, out)
		}
	}
}
