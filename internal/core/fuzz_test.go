package core

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"slices"
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

// Fuzz targets for the two payload decoders a warm sweep (and a fabric
// coordinator) runs on bytes it did not just write. Each states the same
// contract: the decoder never panics, never allocates more than a stated
// function of its input — a length prefix is checked against what the
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
// image it also returns, and the measure payload.
func realPayloads(tb testing.TB) (ckptPayload []byte, points int, base *mem.Memory, resPayload []byte, slots int) {
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
	if ckptPayload, err = encodeCkptPayload(p.Checkpoints, p.WarmupInsts, cpu.Mem); err != nil {
		tb.Fatal(err)
	}
	if resPayload, err = encodeResultPayload(res); err != nil {
		tb.Fatal(err)
	}
	return ckptPayload, p.NumSimPoints(), cpu.Mem, resPayload, cfg.IntIssueSlots
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

// inflatedLen is the size data inflates to, read no further than limit+1.
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

// storedPayload is the checkpoint payload that stores pts as they are, in
// the order given: what storedCheckpoints reads back.
func storedPayload(tb testing.TB, warmups []int64, pts []storedPoint) []byte {
	var raw bytes.Buffer
	bw := binio.NewWriter(&raw)
	bw.Int(len(warmups))
	for _, v := range warmups {
		bw.I64(v)
	}
	for _, p := range pts {
		bw.Int(p.index)
		bw.U64(p.k.PC)
		for _, v := range p.k.X {
			bw.U64(v)
		}
		for _, v := range p.k.F {
			bw.U64(v)
		}
		bw.U64(p.k.InstRet)
		bw.I64(p.k.Interval)
		bw.F64(p.k.Weight)
		bw.Int(len(p.keys))
		for n, key := range p.keys {
			bw.U64(key)
			raw.Write(p.pages[n])
		}
	}
	if bw.Err() != nil {
		tb.Fatal(bw.Err())
	}
	return deflate(raw.Bytes())
}

// storingOnePage is a one-point checkpoint payload whose point stores an
// all-zero page at page index key: over a load image that holds the page,
// an XOR page that says it did not change.
func storingOnePage(tb testing.TB, key uint64) []byte {
	return storedPayload(tb, []int64{0}, []storedPoint{{keys: []uint64{key}, pages: [][]byte{make([]byte, mem.PageSize)}}})
}

// ckptRefusal is a checkpoint payload the decoder must refuse, and what
// its error says.
type ckptRefusal struct {
	why     string
	payload []byte
}

// ckptRefusals are the real payload of realPayloads changed, each in one
// way the encoder never writes.
func ckptRefusals(tb testing.TB, payload []byte, points int) []ckptRefusal {
	warmups, pts := storedCheckpoints(tb, payload, points)
	changed := func(change func(pts []storedPoint)) []byte {
		c := slices.Clone(pts)
		change(c)
		return storedPayload(tb, warmups, c)
	}
	return []ckptRefusal{
		{"out of range", changed(func(c []storedPoint) { c[0].index = points })},
		{"twice", changed(func(c []storedPoint) { c[1].index = c[0].index })},
		{"stored after", changed(func(c []storedPoint) { c[0], c[1] = c[1], c[0] })},
	}
}

// FuzzDecodeCkptPayload: decodeCkptPayload, over a fixed load image,
// allocates at most 1 MiB (the inflater and its 64 KiB read buffer, ~104
// KiB) plus 4× what its input inflates to — flate itself is bounded at
// ~1032× — plus, per accepted point, one fork of the previous point's
// image: a page-map copy of the load image's pages and of at most every
// page the input stores, at most 128 bytes of map each. The checkpoints it
// accepts re-encode to a payload that decodes to the same checkpoints and
// is a fixpoint. (Byte-exactness is on the second trip: arbitrary flate
// streams are not canonical.)
func FuzzDecodeCkptPayload(f *testing.F) {
	payload, points, base, _, _ := realPayloads(f)
	f.Add(payload, points)
	f.Add(payload, points+1)
	f.Add(payload[:len(payload)/2], points)
	f.Add(deflate(withU64(make([]byte, 8), 0, 1<<28)), points) // 2 GiB of warm-ups from eight bytes
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deflate(append(raw, 0)), points) // trailing byte
	f.Add(storingOnePage(f, 0x10), 1)      // an all-zero XOR page over one the load image holds: refused
	f.Add(storingOnePage(f, 0x7ffff), 1)   // a zero page the load image lacks: accepted
	for _, r := range ckptRefusals(f, payload, points) {
		f.Add(r.payload, points)
	}
	fork := allocatedBy(func() { base.Fork() })
	f.Fuzz(func(t *testing.T, data []byte, wantPoints int) {
		if wantPoints < 0 || wantPoints > 1<<10 {
			t.Skip("not a selection's point count")
		}
		const maxRaw = 32 << 20 // keep one fuzz worker's heap small
		raw := inflatedLen(data, maxRaw)
		if raw > maxRaw {
			t.Skip("inflates past what this target is willing to hold")
		}
		var cks []*ckpt.Checkpoint
		var warmups []int64
		var err error
		got := allocatedBy(func() { cks, warmups, err = decodeCkptPayload(data, wantPoints, base) })
		perPoint := 8 + fork + 128*uint64(raw/mem.PageSize)
		if limit := uint64(1<<20+4*raw) + uint64(wantPoints)*perPoint; got > limit {
			t.Fatalf("decoding %d bytes (%d inflated) allocated %d, over the %d bound", len(data), raw, got, limit)
		}
		if err != nil {
			return
		}
		first, err := encodeCkptPayload(cks, warmups, base)
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoints: %v", err)
		}
		cks2, warmups2, err := decodeCkptPayload(first, wantPoints, base)
		if err != nil {
			t.Fatalf("decoding the re-encoded payload: %v", err)
		}
		if !reflect.DeepEqual(warmups, warmups2) || !reflect.DeepEqual(cks, cks2) {
			t.Fatal("re-encoded payload decodes to different checkpoints")
		}
		second, err := encodeCkptPayload(cks2, warmups2, base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("checkpoint payload encoding is not a fixpoint")
		}
	})
}

// TestCkptPayloadStoresOnlyWhatDiffers: an all-zero XOR page over a page
// the load image holds is refused — the encoder never writes one, so
// accepting it would break byte-exact re-encoding — and a stored page the
// load image lacks is added to it. A selection index out of range or
// repeated and points out of program order are refused too, each with its
// own error.
func TestCkptPayloadStoresOnlyWhatDiffers(t *testing.T) {
	payload, points, base, _, _ := realPayloads(t)
	const loaded, absent = 0x10, 0x7ffff // the first text page; a page far above the data
	if base.ReadBytes(loaded<<mem.PageBits, mem.PageSize)[0] == 0 || base.Read64(absent<<mem.PageBits) != 0 {
		t.Fatal("the fixture's page choice no longer fits the load image")
	}
	if _, _, err := decodeCkptPayload(storingOnePage(t, loaded), 1, base); err == nil || !strings.Contains(err.Error(), "equals the reference") {
		t.Errorf("an all-zero XOR page over the load image's: got %v", err)
	}
	cks, _, err := decodeCkptPayload(storingOnePage(t, absent), 1, base)
	if err != nil {
		t.Fatalf("a stored page the load image lacks: %v", err)
	}
	if got := cks[0].Mem.PageCount(); got != base.PageCount()+1 {
		t.Errorf("decoded memory holds %d pages, want the load image's %d and one more", got, base.PageCount())
	}
	for _, r := range ckptRefusals(t, payload, points) {
		if _, _, err := decodeCkptPayload(r.payload, points, base); err == nil || !strings.Contains(err.Error(), r.why) {
			t.Errorf("a payload refused for %q: got %v", r.why, err)
		}
	}
}

// TestRealPayloadsRoundTrip: for payloads the flow itself wrote, decode →
// encode is the identity on the first trip, compressed bytes included.
func TestRealPayloadsRoundTrip(t *testing.T) {
	ckptPayload, points, base, resPayload, slots := realPayloads(t)
	cks, warmups, err := decodeCkptPayload(ckptPayload, points, base)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeCkptPayload(cks, warmups, base); err != nil || !bytes.Equal(again, ckptPayload) {
		t.Errorf("checkpoint payload does not round-trip (err %v)", err)
	}
	var res Result
	if err := decodeResultPayload(resPayload, &res, slots); err != nil {
		t.Fatal(err)
	}
	if again, err := encodeResultPayload(&res); err != nil || !bytes.Equal(again, resPayload) {
		t.Errorf("result payload does not round-trip (err %v)", err)
	}
	// What the two decoders refuse before allocating for it.
	if err := decodeResultPayload(resPayload, &res, slots+1); err == nil {
		t.Error("result payload accepted for a config with a different slot count")
	}
	if _, _, err := decodeCkptPayload(ckptPayload, points+1, base); err == nil {
		t.Error("checkpoint payload accepted for a selection with a different point count")
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
