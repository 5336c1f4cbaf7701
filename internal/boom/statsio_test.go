package boom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocatedBy is the heap fn allocated, in bytes. Background goroutines
// add noise well under the fixed terms of the bounds below.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// encodeStats is the canonical encoding of s.
func encodeStats(tb testing.TB, s *Stats) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeStats(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeStatsBarePrefix: an encoding whose slot-cycle prefix claims
// the full 64 Ki slots with none after it allocates nothing near their
// 512 KiB, and fails as truncated.
func TestDecodeStatsBarePrefix(t *testing.T) {
	data := encodeStats(t, &Stats{})
	binary.LittleEndian.PutUint64(data[len(data)-8:], maxSlotCycles)
	var err error
	got := allocatedBy(func() { _, err = DecodeStats(bytes.NewReader(data)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("DecodeStats of a bare slot prefix: err %v, want io.ErrUnexpectedEOF", err)
	}
	if got > 64<<10 {
		t.Errorf("%d bytes claiming %d slots allocated %d bytes", len(data), maxSlotCycles, got)
	}
}

// FuzzDecodeStats: DecodeStats allocates at most 64 KiB (the Stats value,
// the readers, an error) plus 2× its input, and the prefix of the input it
// accepts re-encodes to exactly those bytes. The seeds are a tiny sha run
// on each preset and mutations of the first one.
func FuzzDecodeStats(f *testing.F) {
	var seeds [][]byte
	for _, cfg := range Configs() {
		seeds = append(seeds, encodeStats(f, runWorkload(f, "sha", cfg)))
		f.Add(seeds[len(seeds)-1])
	}
	seed := seeds[0]
	slotsOff := len(seed) - 8*(Configs()[0].IntIssueSlots+1)
	withSlots := func(n uint64) []byte {
		out := append([]byte(nil), seed...)
		binary.LittleEndian.PutUint64(out[slotsOff:], n)
		return out
	}
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add(withSlots(maxSlotCycles))     // 512 KiB of slots from eight bytes
	f.Add(withSlots(maxSlotCycles + 1)) // past the format's bound
	f.Add(withSlots(1 << 63))           // a negative length
	f.Add(seed[:slotsOff+8])            // a real prefix, no slots
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var s *Stats
		var err error
		got := allocatedBy(func() { s, err = DecodeStats(rd) })
		if limit := uint64(64<<10 + 2*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if again, read := encodeStats(t, s), data[:len(data)-rd.Len()]; !bytes.Equal(again, read) {
			t.Fatalf("accepted stats do not round-trip: %d bytes read, %d re-encoded", len(read), len(again))
		}
	})
}
