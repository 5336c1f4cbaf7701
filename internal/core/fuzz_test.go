package core

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bbv"
	"repro/internal/binio"
	"repro/internal/boom"
	"repro/internal/ckpt"
	mavpkg "repro/internal/mav"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// Fuzz targets for the payload decoders a warm sweep (and a fabric
// coordinator) runs on bytes it did not just write; the checkpoint
// payload's codec, under its flate wrapper here, is ckpt's and is fuzzed
// there too (ckpt.FuzzDecode). Each states the same contract: the decoder
// never panics, never allocates more than a stated function of its input — a length prefix is checked against what the
// caller knows, or against the bytes that remain, before anything is
// sized by it — and what it accepts re-encodes byte-exact. The seed
// corpus is one real tiny-scale payload per decoder plus mutations of it
// that used to reach the unchecked make.

// allocatedBy is the heap fn allocated, in bytes. Background goroutines
// add noise well under the fixed terms of the bounds below.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// realPayloads profiles and measures bitcount at tiny scale on MediumBOOM
// and returns the canonical checkpoint payload, stored against the load
// image it also returns, the checkpoints it stores and the measure
// payload.
func realPayloads(tb testing.TB) (ckptPayload []byte, cks []*ckpt.Checkpoint, base *mem.Memory, resPayload []byte, slots int) {
	tb.Helper()
	ctx := context.Background()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	r := New(DefaultFlowConfig())
	p, err := r.Profile(ctx, w)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := boom.MediumBOOM()
	res, err := r.Run(ctx, p, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cpu, err := w.NewCPU()
	if err != nil {
		tb.Fatal(err)
	}
	if ckptPayload, err = encodeCkptPayload(p.Checkpoints, cpu.Mem); err != nil {
		tb.Fatal(err)
	}
	if resPayload, err = encodeResultPayload(res); err != nil {
		tb.Fatal(err)
	}
	return ckptPayload, p.Checkpoints, cpu.Mem, resPayload, cfg.IntIssueSlots
}

// withU64 returns payload with the little-endian 8 bytes at off replaced.
func withU64(payload []byte, off int, v uint64) []byte {
	out := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// FuzzDecodeResultPayload: decodeResultPayload allocates at most 1 MiB
// (boom.DecodeStats' own bounded slot array, the Stats and Report values)
// plus 4× its input, and an accepted payload re-encodes to itself.
func FuzzDecodeResultPayload(f *testing.F) {
	_, _, _, payload, slots := realPayloads(f)
	const slotsOff, fixed = 6 * 8, 7 * 8 // the Slots prefix; the bytes before the first slot
	pointsOff := fixed + 8*slots
	f.Add(payload, slots)
	f.Add(payload, slots+1)
	f.Add(payload[:len(payload)/2], slots)
	f.Add(append(append([]byte(nil), payload...), 0), slots)
	f.Add(withU64(payload, slotsOff, 1<<28), slots)                       // 2 GiB of slots from eight bytes
	f.Add(withU64(withU64(payload, 2*8, 1<<28), pointsOff, 1<<28), slots) // NumPoints and its prefix agree on 8 GiB
	f.Fuzz(func(t *testing.T, data []byte, intIssueSlots int) {
		if intIssueSlots < 0 || intIssueSlots > 1<<10 {
			t.Skip("not a config's slot count")
		}
		var res Result
		var err error
		got := allocatedBy(func() { err = decodeResultPayload(data, &res, intIssueSlots) })
		if limit := uint64(1<<20 + 4*len(data) + 8*intIssueSlots); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeResultPayload(&res)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d out", len(data), len(again))
		}
	})
}

// inflatedLen is how many bytes data inflates to, counted up to limit+1.
func inflatedLen(data []byte, limit int64) int64 {
	n, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(data)), limit+1))
	return n
}

// deflate compresses raw as the checkpoint payload is compressed.
func deflate(raw []byte) []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	return buf.Bytes()
}

// FuzzDecodeCkptPayload: decodeCkptPayload, into the first points shells
// of bitcount's profile over its load image, allocates at most 1 MiB (the
// inflater and its 64 KiB read buffer, ~104 KiB) plus 4× what its input
// inflates to — flate itself is bounded at ~1032× — plus, per point, one
// fork of the previous point's image: a page-map copy of the load image's
// pages and of at most every page the input stores, at most 128 bytes of
// map each. A payload it accepts inflates to exactly what ckpt.Encode
// writes for the decoded points, and re-encodes to a payload that decodes.
// (Compressed bytes are not compared: arbitrary flate streams are not
// canonical.)
func FuzzDecodeCkptPayload(f *testing.F) {
	payload, cks, base, _, _ := realPayloads(f)
	n := len(cks)
	f.Add(payload, n)
	f.Add(payload, n-1) // one point short: its bytes are trailing
	f.Add(payload[:len(payload)/2], n)
	const regs = (1 + 2*32) * 8                                   // PC, X, F
	f.Add(deflate(withU64(make([]byte, regs+8), regs, 1<<28)), 1) // 2^28 pages claimed in eight bytes
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deflate(append(raw, 0)), n) // trailing byte
	f.Add(storingOnePage(0x10), 1)    // an all-zero XOR page over one the load image holds: refused
	f.Add(storingOnePage(0x7ffff), 1) // a zero page the load image lacks: accepted
	fork := allocatedBy(func() { base.Fork() })
	f.Fuzz(func(t *testing.T, data []byte, points int) {
		if points < 0 || points > n {
			t.Skip("not a count of the profile's points")
		}
		const maxRaw = 32 << 20 // keep one fuzz worker's heap small
		raw := inflatedLen(data, maxRaw)
		if raw > maxRaw {
			t.Skip("inflates past what this target is willing to hold")
		}
		shells := shellsOf(cks[:points])
		var err error
		got := allocatedBy(func() { err = decodeCkptPayload(data, shells, base) })
		perPoint := uint64(fork) + 128*uint64(raw/mem.PageSize+1)
		if limit := uint64(1<<20+4*raw) + uint64(points)*perPoint; got > limit {
			t.Fatalf("decoding %d bytes (%d inflated) allocated %d, over the %d bound", len(data), raw, got, limit)
		}
		if err != nil {
			return
		}
		inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("an accepted payload does not inflate: %v", err)
		}
		var enc bytes.Buffer
		if err := ckpt.Encode(&enc, shells, base); err != nil {
			t.Fatalf("re-encoding accepted checkpoints: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), inflated) {
			t.Fatalf("accepted payload inflates to %d bytes; its points encode to %d different ones", len(inflated), enc.Len())
		}
		again, err := encodeCkptPayload(shells, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeCkptPayload(again, shellsOf(cks[:points]), base); err != nil {
			t.Fatalf("decoding the re-encoded payload: %v", err)
		}
	})
}

// storingOnePage is a checkpoint payload for one shell whose image stores
// an all-zero page at page index key: over a load image that holds the
// page, an XOR page that says it did not change.
func storingOnePage(key uint64) []byte {
	var raw bytes.Buffer
	bw := binio.NewWriter(&raw)
	for range 1 + 2*32 { // PC, X, F
		bw.U64(0)
	}
	bw.U64(1)
	bw.U64(key)
	raw.Write(make([]byte, mem.PageSize))
	return deflate(raw.Bytes())
}

// TestCkptPayloadStoresOnlyWhatDiffers: an all-zero XOR page over a page
// the load image holds is refused — the encoder never writes one, so
// accepting it would break byte-exact re-encoding — and a stored page the
// load image lacks is added to it.
func TestCkptPayloadStoresOnlyWhatDiffers(t *testing.T) {
	_, _, base, _, _ := realPayloads(t)
	const loaded, absent = 0x10, 0x7ffff // the first text page; a page far above the data
	if base.ReadBytes(loaded<<mem.PageBits, mem.PageSize)[0] == 0 || base.Read64(absent<<mem.PageBits) != 0 {
		t.Fatal("the fixture's page choice no longer fits the load image")
	}
	if err := decodeCkptPayload(storingOnePage(loaded), []*ckpt.Checkpoint{{}}, base); err == nil || !strings.Contains(err.Error(), "equals the reference") {
		t.Errorf("an all-zero XOR page over the load image's: got %v", err)
	}
	cks := []*ckpt.Checkpoint{{}}
	if err := decodeCkptPayload(storingOnePage(absent), cks, base); err != nil {
		t.Fatalf("a stored page the load image lacks: %v", err)
	}
	if got := cks[0].Mem.PageCount(); got != base.PageCount()+1 {
		t.Errorf("decoded memory holds %d pages, want the load image's %d and one more", got, base.PageCount())
	}
}

// TestRealPayloadsRoundTrip: for payloads the flow itself wrote, decode →
// encode is the identity on the first trip, compressed bytes included.
func TestRealPayloadsRoundTrip(t *testing.T) {
	ckptPayload, captured, base, resPayload, slots := realPayloads(t)
	cks := shellsOf(captured)
	if err := decodeCkptPayload(ckptPayload, cks, base); err != nil {
		t.Fatal(err)
	}
	if again, err := encodeCkptPayload(cks, base); err != nil || !bytes.Equal(again, ckptPayload) {
		t.Errorf("checkpoint payload does not round-trip (err %v)", err)
	}
	var res Result
	if err := decodeResultPayload(resPayload, &res, slots); err != nil {
		t.Fatal(err)
	}
	if again, err := encodeResultPayload(&res); err != nil || !bytes.Equal(again, resPayload) {
		t.Errorf("result payload does not round-trip (err %v)", err)
	}
	// What the two decoders refuse.
	if err := decodeResultPayload(resPayload, &res, slots+1); err == nil {
		t.Error("result payload accepted for a config with a different slot count")
	}
	for _, n := range []int{len(captured) - 1, len(captured) + 1} {
		cks := shellsOf(captured)
		for len(cks) < n {
			cks = append(cks, &ckpt.Checkpoint{InstRet: 1 << 62})
		}
		if err := decodeCkptPayload(ckptPayload, cks[:n], base); err == nil {
			t.Errorf("checkpoint payload of %d points accepted for a selection of %d", len(captured), n)
		}
	}
}

// realBBVPayloads profiles bitcount at tiny scale under the legacy and the
// bbv+mav spec and returns each canonical profile-stage payload.
func realBBVPayloads(tb testing.TB) map[sampling.Spec][]byte {
	tb.Helper()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[sampling.Spec][]byte{}
	for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
		p, err := New(DefaultFlowConfig(), WithSampling(spec)).Profile(context.Background(), w)
		if err != nil {
			tb.Fatal(err)
		}
		if out[spec], err = encodeBBVPayloadSpec(p.Vectors, p.MAVs, p.TotalInsts, p.NumBlocks, spec); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// bbvCountOff is the offset of the interval count: the instruction and
// block counts come first.
const bbvCountOff = 2 * 8

// TestDecodeBBVPayloadBarePrefix: a payload whose interval count claims
// 2^27 intervals it does not have fails without allocating for them, and a
// real payload still decodes.
func TestDecodeBBVPayloadBarePrefix(t *testing.T) {
	for spec, payload := range realBBVPayloads(t) {
		if _, _, _, _, err := decodeBBVPayloadSpec(payload, spec); err != nil {
			t.Fatalf("%v: a real payload: %v", spec, err)
		}
		bare := withU64(payload[:bbvCountOff+8], bbvCountOff, 1<<27)
		var err error
		got := allocatedBy(func() { _, _, _, _, err = decodeBBVPayloadSpec(bare, spec) })
		if err == nil {
			t.Errorf("%v: a bare 2^27-interval prefix decoded", spec)
		}
		if got > 1<<20 {
			t.Errorf("%v: a bare 2^27-interval prefix allocated %d bytes", spec, got)
		}
	}
}

// TestDecodeBBVPayloadRefusesBadEntries: a BBV entry's index must stay
// below the payload's block count, an interval holds at most that many
// entries, and each varint must be whole and in its one encoding.
func TestDecodeBBVPayloadRefusesBadEntries(t *testing.T) {
	const blocks = 4
	payload := func(entries ...byte) []byte {
		var buf bytes.Buffer
		bw := binio.NewWriter(&buf)
		bw.U64(100)
		bw.Int(blocks)
		bw.Int(1)
		buf.Write(entries)
		return buf.Bytes()
	}
	if v, _, _, _, err := decodeBBVPayloadSpec(payload(1, blocks-1, 100), sampling.Spec{}); err != nil || v[0][blocks-1] != 100 {
		t.Fatalf("the last block's entry: %v, %v", v, err)
	}
	for _, tc := range []struct {
		name    string
		entries []byte
	}{
		{"index = block count", []byte{1, blocks, 100}},
		{"index far past the block count", []byte{1, 0xff, 0xff, 0x03, 100}},
		{"more entries than blocks", []byte{blocks + 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1}},
		{"over-long index", []byte{1, 0x81, 0x00, 100}},
		{"over-long count", []byte{1, 0, 0xe4, 0x80, 0x00}},
		{"varint past 64 bits", []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"truncated count", []byte{1, 0, 0xe4}},
		{"truncated entry", []byte{1, 0}},
	} {
		if _, _, _, _, err := decodeBBVPayloadSpec(payload(tc.entries...), sampling.Spec{}); err == nil {
			t.Errorf("%s (% x): decoded", tc.name, tc.entries)
		}
	}
}

// oneEntryIntervals is a bbv payload of n intervals of one entry each:
// the shape that allocates the most per input byte.
func oneEntryIntervals(n int) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(uint64(n))
	bw.Int(1)
	bw.Int(n)
	for i := 0; i < n; i++ {
		bw.Uvarint(1)
		bw.Uvarint(0)
		bw.Uvarint(1)
	}
	return buf.Bytes()
}

// FuzzDecodeBBVPayload: decodeBBVPayloadSpec never panics, allocates at
// most 1 MiB plus 67× its input, and an accepted payload re-encodes to
// itself byte-exact. A count sizes nothing until the bytes left can hold
// it; the worst case is an interval of one entry, whose 3 varint bytes
// decode to a vector slot, a map header and one 8-slot map group, 200
// bytes (66.7×); an empty interval's one byte takes 56 bytes as a BBV, 64
// as a MAV. The bound is that ratio, not a margin: it was 9× when every
// varint was an 8-byte integer.
func FuzzDecodeBBVPayload(f *testing.F) {
	for spec, payload := range realBBVPayloads(f) {
		mav := spec.UseMAV()
		f.Add(payload, mav)
		f.Add(payload[:len(payload)/2], mav)
		f.Add(append(append([]byte(nil), payload...), 0), mav)
		f.Add(withU64(payload[:bbvCountOff+8], bbvCountOff, 1<<27), mav)
	}
	f.Add(oneEntryIntervals(4096), false)
	f.Fuzz(func(t *testing.T, data []byte, mav bool) {
		var spec sampling.Spec
		if mav {
			spec = sampling.Recommended()
		}
		var v []bbv.Vector
		var m []mavpkg.Vector
		var insts uint64
		var blocks int
		var err error
		got := allocatedBy(func() { v, m, insts, blocks, err = decodeBBVPayloadSpec(data, spec) })
		if limit := uint64(1<<20 + 67*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeBBVPayloadSpec(v, m, insts, blocks, spec)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("an accepted payload does not re-encode to itself: %d bytes in, %d out", len(data), len(again))
		}
	})
}
