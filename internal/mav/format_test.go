package mav

import (
	"bytes"
	"strings"
	"testing"
)

func TestMAVRoundTrip(t *testing.T) {
	vecs := []Vector{
		{FeatLoads: 500, FeatStores: 250, FeatReuseHits: 250},
		{FeatLoads: 1000},
		{},
		{FeatLoads: 10, FeatStores: 20, FeatUniqueLines: 30, FeatLargeStride: 40},
	}
	var buf bytes.Buffer
	if err := WriteMAV(&buf, vecs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vecs) {
		t.Fatalf("got %d vectors, want %d", len(got), len(vecs))
	}
	for i := range vecs {
		if got[i] != vecs[i] {
			t.Errorf("vector %d: %v want %v", i, got[i], vecs[i])
		}
	}
}

func TestMAVFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMAV(&buf, []Vector{{FeatLoads: 7, FeatReuseHits: 3}}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	// .bb-shaped: M:<1-based feature>:<count> pairs, zero features omitted.
	if line != "M:1:7 :8:3" {
		t.Fatalf("unexpected .mav line %q", line)
	}
}

// TestReadMAVHardening mirrors TestReadBBHardening: every malformed
// construct must return an error mentioning it — never panic, never
// silently accept.
func TestReadMAVHardening(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"missing marker", "T:1:2 \n", "missing M marker"},
		{"bad field arity", "M:1:2:3 \n", "bad field"},
		{"zero feature index", "M:0:5 \n", "bad feature index"},
		{"negative feature index", "M:-1:5 \n", "bad feature index"},
		{"index above NumFeatures", "M:9:5 \n", "bad feature index"},
		{"non-numeric index", "M:a:5 \n", "bad feature index"},
		{"negative count", "M:1:-5 \n", "bad count"},
		{"non-numeric count", "M:1:x \n", "bad count"},
		{"float count", "M:1:1.5 \n", "bad count"},
		{"NaN count", "M:1:NaN \n", "bad count"},
		{"Inf count", "M:1:+Inf \n", "bad count"},
		{"count int64 overflow", "M:1:99999999999999999999 \n", "bad count"},
		{"count above 2^53", "M:1:9007199254740993 \n", "exceeds float64"},
		{"duplicate feature", "M:1:2 :1:3 \n", "duplicate feature index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadMAV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadMAV(%q) accepted malformed input", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadMAV(%q) error %q, want it to mention %q", tc.in, err, tc.wantErr)
			}
		})
	}

	// The exact-range boundary itself is legal, as are comments/blanks.
	v, err := ReadMAV(strings.NewReader("# header\n\nM:1:9007199254740992 \n"))
	if err != nil {
		t.Fatalf("ReadMAV rejected count 2^53: %v", err)
	}
	if got := v[0][FeatLoads]; got != 9007199254740992 {
		t.Fatalf("count 2^53 parsed as %v", got)
	}
}

// TestReadMAVLongLine pins the accepted input size: the scanner starts at
// 64 KiB and grows, so a line well past that — a vector has only
// NumFeatures fields, so the length here is padding between them — still
// parses to the same vector.
func TestReadMAVLongLine(t *testing.T) {
	want := Vector{FeatLoads: 7, FeatReuseHits: 3}
	line := "M:1:7 " + strings.Repeat(" ", 70<<10) + ":8:3\nM:2:5\n"
	got, err := ReadMAV(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want || got[1] != (Vector{FeatStores: 5}) {
		t.Fatalf("got %v, want [%v %v]", got, want, Vector{FeatStores: 5})
	}
}
