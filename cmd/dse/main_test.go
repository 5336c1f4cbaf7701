package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/serve"
)

func runDSE(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("dse %v: %v\nstderr: %s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestParamsSurface(t *testing.T) {
	out, _ := runDSE(t, "-params")
	for _, want := range []string{"rob", "predictor", "int-issue-width", "dcache-kib"} {
		if !strings.Contains(out, want) {
			t.Errorf("-params output missing %q", want)
		}
	}
}

func TestNoAxesRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("dse with no axes must refuse to run")
	}
}

// TestRetiredFlagsUndefined: -timeout is gone, not ignored — with -addr the
// long poll waits as long as the campaign runs, each request bounded by the
// client itself.
func TestRetiredFlagsUndefined(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-timeout", "1m", "-axes", "rob=64,96"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("dse -timeout 1m: %v, want \"flag provided but not defined\"", err)
	}
}

// TestLocalFrontier: a small local exploration produces a deterministic
// frontier whose JSON form is bit-identical across runs, and whose text
// form names a recommendation per workload.
func TestLocalFrontier(t *testing.T) {
	args := []string{"-q", "-workloads", "sha", "-axes", "rob=48,64", "-json"}
	a, _ := runDSE(t, args...)
	b, _ := runDSE(t, args...)
	if a != b {
		t.Fatal("frontier JSON differs between identical runs")
	}
	var rep dse.Report
	if err := json.Unmarshal([]byte(a), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DesignPoints != 2 || len(rep.Workloads) != 1 || rep.Workloads[0].Workload != "sha" {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	if rep.Campaign == "" {
		t.Error("report missing the campaign fingerprint")
	}

	text, _ := runDSE(t, "-q", "-workloads", "sha", "-axes", "rob=48,64")
	if !strings.Contains(text, "efficiency-optimal:") || !strings.Contains(text, "design points: 2") {
		t.Errorf("text report missing recommendation or point count:\n%s", text)
	}
}

// TestRemoteMatchesLocal: the same campaign through a boomd handler and
// through the in-process runner must emit identical frontier bytes.
func TestRemoteMatchesLocal(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	addr := strings.TrimPrefix(ts.URL, "http://")

	campaign := []string{"-workloads", "sha", "-axes", "rob=48,64", "-json"}
	local, _ := runDSE(t, append([]string{"-q"}, campaign...)...)
	remote, _ := runDSE(t, append([]string{"-addr", addr}, campaign...)...)
	if local != remote {
		t.Fatalf("frontier bytes differ between local and boomd paths:\nlocal  %s\nremote %s", local, remote)
	}
}
