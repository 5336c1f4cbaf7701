package core

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	mavpkg "repro/internal/mav"
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
// and returns the canonical checkpoint and measure payloads.
func realPayloads(tb testing.TB) (ckptPayload []byte, points int, resPayload []byte, slots int) {
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
	if ckptPayload, err = encodeCkptPayload(p.Checkpoints, p.WarmupInsts); err != nil {
		tb.Fatal(err)
	}
	if resPayload, err = encodeResultPayload(res); err != nil {
		tb.Fatal(err)
	}
	return ckptPayload, p.NumSimPoints(), resPayload, cfg.IntIssueSlots
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
	_, _, payload, slots := realPayloads(f)
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

// FuzzDecodeCkptPayload: decodeCkptPayload allocates at most 1 MiB (the
// inflater and its 64 KiB read buffer, ~104 KiB; one page map sized by a
// bounded count hint, ~145 KiB — ckpt.DeserializeAll sizes nothing by its
// count) plus 4× what its input inflates to — flate itself is bounded at
// ~1032× — and the checkpoints it accepts re-encode to a payload that
// decodes to the same checkpoints and is a fixpoint. (Byte-exactness is
// on the second trip: arbitrary flate streams are not canonical.)
func FuzzDecodeCkptPayload(f *testing.F) {
	payload, points, _, _ := realPayloads(f)
	f.Add(payload, points)
	f.Add(payload, points+1)
	f.Add(payload[:len(payload)/2], points)
	deflate := func(raw []byte) []byte {
		var buf bytes.Buffer
		fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
		fw.Write(raw)
		fw.Close()
		return buf.Bytes()
	}
	f.Add(deflate(withU64(make([]byte, 8), 0, 1<<28)), points) // 2 GiB of warm-ups from eight bytes
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deflate(append(raw, 0)), points) // trailing byte
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
		got := allocatedBy(func() { cks, warmups, err = decodeCkptPayload(data, wantPoints) })
		if limit := uint64(1<<20 + 4*raw + 8*int64(wantPoints)); got > limit {
			t.Fatalf("decoding %d bytes (%d inflated) allocated %d, over the %d bound", len(data), raw, got, limit)
		}
		if err != nil {
			return
		}
		first, err := encodeCkptPayload(cks, warmups)
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoints: %v", err)
		}
		cks2, warmups2, err := decodeCkptPayload(first, wantPoints)
		if err != nil {
			t.Fatalf("decoding the re-encoded payload: %v", err)
		}
		if !reflect.DeepEqual(warmups, warmups2) || !reflect.DeepEqual(cks, cks2) {
			t.Fatal("re-encoded payload decodes to different checkpoints")
		}
		second, err := encodeCkptPayload(cks2, warmups2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("checkpoint payload encoding is not a fixpoint")
		}
	})
}

// TestRealPayloadsRoundTrip: for payloads the flow itself wrote, decode →
// encode is the identity on the first trip, compressed bytes included.
func TestRealPayloadsRoundTrip(t *testing.T) {
	ckptPayload, points, resPayload, slots := realPayloads(t)
	cks, warmups, err := decodeCkptPayload(ckptPayload, points)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeCkptPayload(cks, warmups); err != nil || !bytes.Equal(again, ckptPayload) {
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
	if _, _, err := decodeCkptPayload(ckptPayload, points+1); err == nil {
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

// bbvBodyOff is the offset of the .bb section's length prefix: the
// instruction and block counts come first.
const bbvBodyOff = 2 * 8

// TestDecodeBBVPayloadBarePrefix: a payload whose .bb section claims 128
// MiB it does not have fails without allocating for it, and a real payload
// still decodes.
func TestDecodeBBVPayloadBarePrefix(t *testing.T) {
	for spec, payload := range realBBVPayloads(t) {
		if _, _, _, _, err := decodeBBVPayloadSpec(payload, spec); err != nil {
			t.Fatalf("%v: a real payload: %v", spec, err)
		}
		bare := withU64(payload[:bbvBodyOff+8], bbvBodyOff, 1<<27)
		var err error
		got := allocatedBy(func() { _, _, _, _, err = decodeBBVPayloadSpec(bare, spec) })
		if err == nil {
			t.Errorf("%v: a bare 128 MiB prefix decoded", spec)
		}
		if got > 1<<20 {
			t.Errorf("%v: a bare 128 MiB prefix allocated %d bytes", spec, got)
		}
	}
}

// FuzzDecodeBBVPayload: decodeBBVPayloadSpec never panics, allocates at
// most 1 MiB (the scanner's buffers, the readers) plus 64× its input — a
// text vector decodes into a map, ~50 bytes per "T\n" line or ":1:0"
// field, while a length prefix sizes nothing — and an accepted payload
// re-encodes to a payload that decodes to the same profile and is a
// fixpoint. (Byte-exactness is on the second trip: the .bb and .mav
// sections are text, and their readers take any spacing and comments.)
func FuzzDecodeBBVPayload(f *testing.F) {
	for spec, payload := range realBBVPayloads(f) {
		mav := spec.UseMAV()
		f.Add(payload, mav)
		f.Add(payload[:len(payload)/2], mav)
		f.Add(append(append([]byte(nil), payload...), 0), mav)
		f.Add(withU64(payload[:bbvBodyOff+8], bbvBodyOff, 1<<27), mav)
	}
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
		if limit := uint64(1<<20 + 64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeBBVPayloadSpec(v, m, insts, blocks, spec)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		v2, m2, insts2, blocks2, err := decodeBBVPayloadSpec(again, spec)
		if err != nil {
			t.Fatalf("decoding a re-encoded payload: %v", err)
		}
		if !reflect.DeepEqual(v2, v) || !reflect.DeepEqual(m2, m) || insts2 != insts || blocks2 != blocks {
			t.Fatal("a re-encoded payload decodes to a different profile")
		}
		third, err := encodeBBVPayloadSpec(v2, m2, insts2, blocks2, spec)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not a fixpoint: %d bytes, then %d (err %v)", len(again), len(third), err)
		}
	})
}
