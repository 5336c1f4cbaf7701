package simpoint

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimPointsFilesRoundTrip(t *testing.T) {
	res := &Result{
		Selected: []Point{
			{Interval: 12, Cluster: 0, Weight: 0.5},
			{Interval: 90, Cluster: 3, Weight: 0.3125},
			{Interval: 7, Cluster: 1, Weight: 0.1875},
		},
	}
	var sp, wt bytes.Buffer
	if err := WriteSimPoints(&sp, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteWeights(&wt, res); err != nil {
		t.Fatal(err)
	}
	pts, err := ReadSimPoints(&sp, &wt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		want := res.Selected[i]
		if p.Interval != want.Interval || p.Cluster != want.Cluster {
			t.Errorf("point %d: %+v want %+v", i, p, want)
		}
		if d := p.Weight - want.Weight; d > 1e-6 || d < -1e-6 {
			t.Errorf("point %d weight %v want %v", i, p.Weight, want.Weight)
		}
	}
}

func TestReadSimPointsValidates(t *testing.T) {
	cases := []struct{ sp, wt string }{
		{"1 0\n2 1\n", "0.5 0\n"}, // length mismatch
		{"1 0\n", "0.5 1\n"},      // cluster mismatch
		{"1\n", "0.5 0\n"},        // bad field count
		{"x 0\n", "0.5 0\n"},      // bad interval
	}
	for _, c := range cases {
		if _, err := ReadSimPoints(strings.NewReader(c.sp), strings.NewReader(c.wt)); err == nil {
			t.Errorf("expected error for %q/%q", c.sp, c.wt)
		}
	}
}

func TestEndToEndFileInterop(t *testing.T) {
	vecs := steadyPhases(3, 10)
	res, err := Choose(vecs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sp, wt bytes.Buffer
	if err := WriteSimPoints(&sp, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteWeights(&wt, res); err != nil {
		t.Fatal(err)
	}
	pts, err := ReadSimPoints(&sp, &wt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(res.Selected) {
		t.Fatalf("interop lost points: %d vs %d", len(pts), len(res.Selected))
	}
}

// TestSimPointsFileShape pins the two SimPoint 3.0 result files: one
// "<interval> <cluster>" line per point, and the matching "<weight>
// <cluster>" line at six decimals.
func TestSimPointsFileShape(t *testing.T) {
	res := &Result{
		Selected: []Point{
			{Interval: 12, Cluster: 0, Weight: 0.5},
			{Interval: 90, Cluster: 3, Weight: 0.3125},
			{Interval: 7, Cluster: 1, Weight: 0.1875},
		},
	}
	var sp, wt bytes.Buffer
	if err := WriteSimPoints(&sp, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteWeights(&wt, res); err != nil {
		t.Fatal(err)
	}
	if got, want := sp.String(), "12 0\n90 3\n7 1\n"; got != want {
		t.Errorf(".simpoints = %q, want %q", got, want)
	}
	if got, want := wt.String(), "0.500000 0\n0.312500 3\n0.187500 1\n"; got != want {
		t.Errorf(".weights = %q, want %q", got, want)
	}
}
