package bbv

import (
	"bytes"
	"strings"
	"testing"
)

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
