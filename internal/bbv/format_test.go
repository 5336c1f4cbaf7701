package bbv

import (
	"bytes"
	"strings"
	"testing"
)

func TestBBRoundTrip(t *testing.T) {
	vecs := []Vector{
		{0: 500, 3: 250, 7: 250},
		{1: 1000},
		{0: 10, 1: 20, 2: 30, 3: 40},
	}
	var buf bytes.Buffer
	if err := WriteBB(&buf, vecs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vecs) {
		t.Fatalf("got %d vectors, want %d", len(got), len(vecs))
	}
	for i := range vecs {
		if len(got[i]) != len(vecs[i]) {
			t.Fatalf("vector %d: %d blocks, want %d", i, len(got[i]), len(vecs[i]))
		}
		for b, w := range vecs[i] {
			if got[i][b] != w {
				t.Errorf("vector %d block %d: %v want %v", i, b, got[i][b], w)
			}
		}
	}
}

func TestBBFormatShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBB(&buf, []Vector{{0: 7, 4: 3}}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	// SimPoint 3.0 format: T:<1-based id>:<count> pairs.
	if line != "T:1:7 :5:3" {
		t.Fatalf("unexpected .bb line %q", line)
	}
}

func TestReadBBRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"X:1:2", "T:0:5", "T:1:-2", "T:a:b", "T:1"} {
		if _, err := ReadBB(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
	// Comments and blank lines are fine.
	got, err := ReadBB(strings.NewReader("# header\n\nT:1:5 \n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("comment handling: %v %d", err, len(got))
	}
}

// TestReadBBLongLine pins the accepted input size: the scanner starts at
// 64 KiB and grows, so an interval that touches thousands of blocks (one
// line well past 64 KiB) still round-trips.
func TestReadBBLongLine(t *testing.T) {
	v := Vector{}
	for b := 0; b < 10_000; b++ {
		v[b] = float64(1000 + b)
	}
	var buf bytes.Buffer
	if err := WriteBB(&buf, []Vector{v, {0: 1}}); err != nil {
		t.Fatal(err)
	}
	if first := strings.IndexByte(buf.String(), '\n'); first <= 64<<10 {
		t.Fatalf("first line is %d bytes; the test needs one past 64 KiB", first)
	}
	got, err := ReadBB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != len(v) || len(got[1]) != 1 {
		t.Fatalf("got %d vectors (%d blocks in the first), want 2 (%d)", len(got), len(got[0]), len(v))
	}
	for b, w := range v {
		if got[0][b] != w {
			t.Fatalf("block %d: %v want %v", b, got[0][b], w)
		}
	}
}
