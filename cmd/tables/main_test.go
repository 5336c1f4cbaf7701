package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// beMainEnv marks a re-exec of the test binary that must behave as the
// tables command itself (TestCrashResumeRoundTrip's child).
const beMainEnv = "TABLES_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) != "" {
		main() // os.Args are the child's; -die-after's exit(3) happens in here
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var spaceRun = regexp.MustCompile(" {2,}")

// normalize canonicalizes the one nondeterministic region of the report.
// The speedup table times the real sweep, so its "TOTAL wall-clock" row —
// and the column widths every row of that table inherits from it — vary
// run to run. Within that block only, space runs are squashed, dash rules
// shortened, and the wall-clock row replaced by a placeholder. Everything
// else must match byte for byte.
func normalize(s string) string {
	lines := strings.Split(s, "\n")
	in := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "SimPoint speedup"):
			in = true
			continue
		case in && strings.TrimSpace(line) == "":
			in = false
			continue
		case !in:
			continue
		}
		if strings.HasPrefix(line, "TOTAL wall-clock") {
			lines[i] = "TOTAL wall-clock <varies>"
			continue
		}
		if t := strings.TrimRight(line, "-"); t == "" && line != "" {
			lines[i] = "---"
			continue
		}
		lines[i] = strings.TrimRight(spaceRun.ReplaceAllString(line, " "), " ")
	}
	return strings.Join(lines, "\n")
}

// firstDiff reports the first line where two outputs diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(la), len(lb))
}

// TestGoldenTinyOutput pins the full tiny-scale report against a golden
// file. Regenerate with: go test ./cmd/tables -run TestGoldenTinyOutput -update
func TestGoldenTinyOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "tiny", "-q"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := normalize(buf.String())
	golden := filepath.Join("testdata", "tiny_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("tiny report drifted from golden file (regenerate with -update if intended)\n%s",
			firstDiff(got, string(want)))
	}
}

// TestCacheRoundTrip is the command-level byte-identity claim: a warm-cache
// rerun must reproduce the cold run's stdout exactly — including the
// wall-clock speedup row, whose costs are restored from the cache.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "tiny", "-q", "-cache", dir}
	var cold, warm bytes.Buffer
	if err := run(args, &cold, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &warm, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm-cache output is not byte-identical to cold\n%s",
			firstDiff(warm.String(), cold.String()))
	}
}

// TestCacheVerifyRequiresDir: -cache-verify alone is a usage error, not a
// silent no-op.
func TestCacheVerifyRequiresDir(t *testing.T) {
	err := run([]string{"-cache-verify"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Fatalf("want a usage error mentioning -cache, got %v", err)
	}
}

// TestMetricsOutCheckedBeforeSweep: a -metrics-out that cannot be created
// is a usage error returned before the sweep starts (no progress line, no
// table), not a failure after it.
func TestMetricsOutCheckedBeforeSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "tiny", "-metrics", "json",
		"-metrics-out", filepath.Join(t.TempDir(), "no-such-dir", "m.json")}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Fatalf("want a usage error mentioning -metrics-out, got %v", err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("the sweep ran before the error: stdout %d bytes, stderr %q", stdout.Len(), stderr.String())
	}
}

// TestChaosKeepGoingCLI proves the chaos wiring end to end through the
// command: a keep-going sweep under a seeded fault plan (a panic and a
// transient error that outlasts its retries) renders its tables with
// FAILED cells, lists the failed tasks on stderr and returns an error —
// it never crashes. (core's TestChaosSweepAcceptance proves the rest:
// non-faulted pairs stay bit-identical.)
func TestChaosKeepGoingCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "tiny", "-q", "-keep-going", "-retries", "2",
		"-chaos", "42:core.measure/sha/MediumBOOM=panic,core.measure/qsort/*=error"}, &stdout, &stderr)
	if err == nil {
		t.Error("a sweep with failed tasks returned no error")
	}
	if !strings.Contains(stdout.String(), "FAILED") {
		t.Error("no FAILED cell in the rendered tables")
	}
	if !strings.Contains(stderr.String(), "task(s) failed") {
		t.Errorf("stderr does not list the failed tasks: %q", stderr.String())
	}
}

// TestCrashResumeRoundTrip kills a real process mid-sweep: a child (this
// test binary re-exec'd as the command) runs a cached sweep at -j 1 with
// -die-after 5 and must die with exit status 3 — five workloads profiled,
// nothing else finished. Crash recovery is the cache: the first rerun over
// it must recompute exactly the unfinished stages (the other profile
// chains, every measurement), the second nothing, and both must print the
// same bytes (wall-clock figures travel with the artifacts, so the compare
// is byte for byte).
func TestCrashResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	const profiled = 5 // tasks the child finishes: at -j 1, the first five profile chains
	cache := t.TempDir()
	args := []string{"-scale", "tiny", "-q", "-j", "1", "-cache", cache}

	child := exec.Command(os.Args[0], append(args, "-die-after", fmt.Sprint(profiled))...)
	child.Env = append(os.Environ(), beMainEnv+"=1")
	out, err := child.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child: %v, want exit status 3\n%s", err, out)
	}

	rerun := func() (stdout []byte, counters map[string]int64) {
		mfile := filepath.Join(t.TempDir(), "m.json")
		var buf bytes.Buffer
		if err := run(append(args, "-metrics", "json", "-metrics-out", mfile), &buf, io.Discard); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(mfile)
		if err != nil {
			t.Fatal(err)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), snap.Counters
	}
	first, c1 := rerun()
	second, c2 := rerun()

	unprofiled := int64(len(workloads.Names()) - profiled)
	for stage, want := range map[string]int64{
		"bbv": unprofiled, "select": unprofiled, "checkpoint": unprofiled,
		"measure": int64(len(workloads.Names()) * len(boom.Configs())),
	} {
		if got := c1["artifact."+stage+".miss"]; got != want {
			t.Errorf("first rerun: artifact.%s.miss = %d, want %d (exactly what the kill left unfinished)", stage, got, want)
		}
		if got := c2["artifact."+stage+".miss"]; got != 0 {
			t.Errorf("second rerun: artifact.%s.miss = %d, want 0", stage, got)
		}
	}
	if got := c1["artifact.bbv.hit"]; got != profiled {
		t.Errorf("first rerun: artifact.bbv.hit = %d, want the %d profiles the child finished", got, profiled)
	}
	if c1["boom.retired"] == 0 || c2["boom.retired"] != 0 {
		t.Errorf("boom.retired = %d then %d, want the detailed model to run in the first rerun only", c1["boom.retired"], c2["boom.retired"])
	}
	if !bytes.Equal(first, second) {
		t.Errorf("the rerun after the kill is not byte-identical to a warm rerun\n%s",
			firstDiff(string(first), string(second)))
	}
	if left, _ := filepath.Glob(filepath.Join(cache, "*.journal")); len(left) != 0 {
		t.Errorf("a single-node sweep keeps no journal, found %v", left)
	}
}
