package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/generators_golden.txt from the current generators")

// pinLine renders one workload's golden line: a SHA-256 over Source, one
// over the (Addr, len, Bytes) sequence of Segments, the resolved interval
// and the reference checksum — every byte the cache identity hashes, and
// the value the flow checks the simulated exit against.
func pinLine(t *testing.T, name string, s Scale) string {
	t.Helper()
	w, err := Build(name, s)
	if err != nil {
		t.Fatal(err)
	}
	src := sha256.Sum256([]byte(w.Source))
	segs := sha256.New()
	var hdr [16]byte
	for _, seg := range w.Segments {
		binary.LittleEndian.PutUint64(hdr[0:], seg.Addr)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(seg.Bytes)))
		segs.Write(hdr[:])
		segs.Write(seg.Bytes)
	}
	return fmt.Sprintf("%s %s source=%x segments=%x interval=%d checksum=%#x",
		name, s, src, segs.Sum(nil), w.IntervalSize, w.Checksum())
}

// TestGeneratorsPinned holds every generator's output at tiny and default
// scale to testdata/generators_golden.txt, which was generated before the
// reference moved behind Workload.Checksum: a builder refactor may move no
// byte of source or data and no reference value.
func TestGeneratorsPinned(t *testing.T) {
	var got bytes.Buffer
	for _, s := range []Scale{ScaleTiny, ScaleDefault} {
		for _, name := range Names() {
			fmt.Fprintln(&got, pinLine(t, name, s))
		}
	}
	path := filepath.Join("testdata", "generators_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := bytes.Split(bytes.TrimSpace(want), []byte("\n"))
	gotLines := bytes.Split(bytes.TrimSpace(got.Bytes()), []byte("\n"))
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, generators produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Errorf("generator output drifted:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
