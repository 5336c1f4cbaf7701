package simpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocatedBy is the heap fn allocated, in bytes.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sampleResult is a small selection in the shape Choose returns.
func sampleResult() *Result {
	return &Result{
		K:           2,
		Assignments: []int{0, 1, 1, 0, 1},
		Points:      []Point{{Interval: 2, Cluster: 1, Weight: 0.6}, {Interval: 0, Cluster: 0, Weight: 0.4}},
		Selected:    []Point{{Interval: 2, Cluster: 1, Weight: 0.6}},
		Coverage:    0.6,
		Stats:       ClusterStats{KTried: 3, Runs: 15, Iterations: 71, Converged: true},
	}
}

func encodeSample(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, sampleResult()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// assignmentsOff is the offset of the Assignments length prefix: the magic,
// K, Coverage and the four Stats words come first.
const assignmentsOff = 7 * 8

// TestDecodeResultBarePrefix: a 64-byte input whose Assignments prefix
// claims 2^24 entries (128 MiB) fails as truncated without allocating for
// them; so do the two Point slices' prefixes.
func TestDecodeResultBarePrefix(t *testing.T) {
	full := encodeSample(t)
	bare := binary.LittleEndian.AppendUint64(append([]byte(nil), full[:assignmentsOff]...), 1<<24)
	if len(bare) != 64 {
		t.Fatalf("bare input is %d bytes", len(bare))
	}
	pointsOff := assignmentsOff + 8 + 8*len(sampleResult().Assignments)
	points := binary.LittleEndian.AppendUint64(append([]byte(nil), full[:pointsOff]...), 1<<24)
	for _, in := range []struct {
		what string
		data []byte
	}{{"assignments", bare}, {"points", points}} {
		var err error
		got := allocatedBy(func() { _, err = DecodeResult(bytes.NewReader(in.data)) })
		if err == nil {
			t.Errorf("%s: a bare 2^24 prefix decoded", in.what)
		}
		if got > 1<<20 {
			t.Errorf("%s: a bare 2^24 prefix allocated %d bytes", in.what, got)
		}
	}
}

// FuzzDecodeResult: DecodeResult never panics, allocates at most 64 KiB
// (the Result and the readers; a slice is sized only by the bytes left)
// plus 4× its input, and the bytes an accepted input was decoded from
// re-encode to themselves.
func FuzzDecodeResult(f *testing.F) {
	full := encodeSample(f)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), 0))
	bare := binary.LittleEndian.AppendUint64(append([]byte(nil), full[:assignmentsOff]...), 1<<24)
	f.Add(bare)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var res *Result
		var err error
		got := allocatedBy(func() { res, err = DecodeResult(rd) })
		if limit := uint64(1<<16 + 4*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := EncodeResult(&again, res); err != nil {
			t.Fatalf("re-encoding an accepted result: %v", err)
		}
		if read := data[:len(data)-rd.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("accepted result does not round-trip: %d bytes read, %d written", len(read), again.Len())
		}
	})
}
