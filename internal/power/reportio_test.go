package power

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/asap7"
	"repro/internal/boom"
	"repro/internal/workloads"
)

// allocatedBy is the heap fn allocated, in bytes. Background goroutines
// add noise well under the fixed term of the bound below.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// encodeReport is the canonical encoding of rep.
func encodeReport(tb testing.TB, rep *Report) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeReport: DecodeReport allocates at most 64 KiB (the Report
// value, the readers, an error) whatever its input — it sizes nothing
// from the bytes — and the prefix of the input it accepts re-encodes to
// exactly those bytes. The seeds are a tiny sha run's report on each
// preset and mutations of the first one.
func FuzzDecodeReport(f *testing.F) {
	var seeds [][]byte
	for _, cfg := range boom.Configs() {
		stats := runScaled(f, "sha", workloads.ScaleTiny, cfg, math.MaxUint64)
		rep, err := NewEstimator(cfg, asap7.Default()).Estimate(stats)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, encodeReport(f, rep))
		f.Add(seeds[len(seeds)-1])
	}
	seed := seeds[0]
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add(seed[:8])                                       // magic only
	f.Add(append(append([]byte(nil), seed[:8]...), 1<<7)) // a component count cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var rep *Report
		var err error
		if got := allocatedBy(func() { rep, err = DecodeReport(rd) }); got > 64<<10 {
			t.Fatalf("decoding %d bytes allocated %d, over the 64 KiB bound", len(data), got)
		}
		if err != nil {
			return
		}
		if again, read := encodeReport(t, rep), data[:len(data)-rd.Len()]; !bytes.Equal(again, read) {
			t.Fatalf("accepted report does not round-trip: %d bytes read, %d re-encoded", len(read), len(again))
		}
	})
}
