package ckpt_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/binio"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// allocatedBy is the heap fn allocated, in bytes.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeserializeAllChecksBeforeAllocating: eight bytes claiming 2^20
// checkpoints fail at the first missing one without first sizing an 8 MiB
// pointer slice for all of them.
func TestDeserializeAllChecksBeforeAllocating(t *testing.T) {
	in := binary.LittleEndian.AppendUint64(nil, 1<<20)
	var best uint64
	for i := 0; i < 3; i++ { // a stray background allocation must not decide it
		var err error
		got := allocatedBy(func() { _, err = ckpt.DeserializeAll(bytes.NewReader(in)) })
		if err == nil {
			t.Fatal("a count with no checkpoints behind it was accepted")
		}
		if i == 0 || got < best {
			best = got
		}
	}
	if best >= 64<<10 {
		t.Errorf("refusing 8 bytes allocated %d bytes, want under 64 KiB", best)
	}
}

// profiled is the checkpoints the flow captures for a workload at tiny
// scale under the zero spec, and the workload's entry image, the base the
// flow stores them against.
func profiled(tb testing.TB, name string) ([]*ckpt.Checkpoint, *mem.Memory) {
	tb.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.New(core.DefaultFlowConfig()).Profile(context.Background(), w)
	if err != nil {
		tb.Fatal(err)
	}
	entry, err := w.Entry()
	if err != nil {
		tb.Fatal(err)
	}
	return p.Checkpoints, entry.Mem
}

// shellsOf is ks with only what a caller of Decode knows: InstRet,
// Interval and Weight.
func shellsOf(ks []*ckpt.Checkpoint) []*ckpt.Checkpoint {
	out := make([]*ckpt.Checkpoint, len(ks))
	for i, k := range ks {
		out[i] = &ckpt.Checkpoint{InstRet: k.InstRet, Interval: k.Interval, Weight: k.Weight}
	}
	return out
}

// encoded is ks in Encode's format against base.
func encoded(tb testing.TB, ks []*ckpt.Checkpoint, base *mem.Memory) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, ks, base); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// onePage is one point in Encode's format, zero registers, whose image
// stores an all-zero page at page index key: over a base that holds the
// page, an XOR page that says it did not change.
func onePage(key uint64) []byte {
	var raw bytes.Buffer
	bw := binio.NewWriter(&raw)
	for range 1 + 2*32 { // PC, X, F
		bw.U64(0)
	}
	bw.U64(1)
	bw.U64(key)
	raw.Write(make([]byte, mem.PageSize))
	return raw.Bytes()
}

// FuzzDecode: Decode, into the first points shells of bitcount's profile
// over its entry image, as the flow reads its cache entry (less the flate
// wrapper), never panics and allocates at most 256 KiB plus 4× its input
// plus, per point, one fork of the previous point's image: a page-map copy
// of the base's pages and of at most every page the input stores, at most
// 128 bytes of map each. What it accepts re-encodes through Encode to
// exactly the bytes it consumed. The seeds are the flow's payload for
// bitcount and mutations of it.
func FuzzDecode(f *testing.F) {
	ks, base := profiled(f, "bitcount")
	n := len(ks)
	flow := encoded(f, ks, base)
	f.Add(flow, n)
	f.Add(flow, n-1) // one point short: its bytes are left unread
	f.Add(flow[:len(flow)/2], n)
	f.Add(append(append([]byte(nil), flow...), 0), n) // a trailing byte, left unread
	f.Add(onePage(0x10), 1)                           // an all-zero XOR page over one the entry image holds: refused
	f.Add(onePage(0x7ffff), 1)                        // a zero page the entry image lacks: accepted
	fork := allocatedBy(func() { base.Fork() })
	f.Fuzz(func(t *testing.T, data []byte, points int) {
		if points < 0 || points > n {
			t.Skip("not a count of the profile's points")
		}
		rd := bytes.NewReader(data)
		shells := shellsOf(ks[:points])
		var err error
		got := allocatedBy(func() { err = ckpt.Decode(rd, shells, base) })
		checkDecoded(t, data, rd, points, fork, got, err, func(w *bytes.Buffer) error { return ckpt.Encode(w, shells, base) })
	})
}

// FuzzDeserializeAll: DeserializeAll, the same decoder behind a count and
// a shell header over an empty memory, keeps FuzzDecode's contract, and
// what it accepts re-encodes through SerializeAll. The seeds are the
// checkpoint set the flow captures for bitcount at tiny scale and
// mutations of it.
func FuzzDeserializeAll(f *testing.F) {
	ks, _ := profiled(f, "bitcount")
	var set bytes.Buffer
	if err := ckpt.SerializeAll(&set, ks); err != nil {
		f.Fatal(err)
	}
	seed := set.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<20)) // 8 MiB of pointers from eight bytes
	f.Add(append(binary.LittleEndian.AppendUint64(nil, uint64(len(ks)+1)), seed[8:]...))
	fork := allocatedBy(func() { mem.New().Fork() })
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var got []*ckpt.Checkpoint
		var err error
		alloc := allocatedBy(func() { got, err = ckpt.DeserializeAll(rd) })
		most := len(data) / (3*8 + (1+2*32)*8 + 8) // points decoded, at most: a shell, registers and a page count each
		checkDecoded(t, data, rd, most, fork, alloc, err, func(w *bytes.Buffer) error { return ckpt.SerializeAll(w, got) })
	})
}

// checkDecoded is the contract both fuzz targets hold a decode of data to:
// it allocated (got) at most the bound for points points, each forking an
// image that costs fork, and, when it was accepted (err nil), encode
// writes exactly the bytes the decoder consumed from rd.
func checkDecoded(t *testing.T, data []byte, rd *bytes.Reader, points int, fork, got uint64, err error, encode func(*bytes.Buffer) error) {
	t.Helper()
	perPoint := fork + 128*uint64(len(data)/mem.PageSize+1)
	if limit := uint64(256<<10+4*len(data)) + uint64(points)*perPoint; got > limit {
		t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
	}
	if err != nil {
		return
	}
	var again bytes.Buffer
	if err := encode(&again); err != nil {
		t.Fatalf("re-encoding accepted checkpoints: %v", err)
	}
	if consumed := data[:len(data)-rd.Len()]; !bytes.Equal(again.Bytes(), consumed) {
		t.Fatalf("accepted %d bytes re-encode to %d different ones", len(consumed), again.Len())
	}
}

// TestSerializeAllIsTheFlowsCodec: for every workload's profile at tiny
// scale, SerializeAll writes the count and the shells, then exactly what
// Encode writes against an empty memory; DeserializeAll reads back every
// checkpoint's registers, shell and image.
func TestSerializeAllIsTheFlowsCodec(t *testing.T) {
	for _, name := range workloads.Names() {
		ks, _ := profiled(t, name)
		var set bytes.Buffer
		if err := ckpt.SerializeAll(&set, ks); err != nil {
			t.Fatal(err)
		}
		header := 8 + 3*8*len(ks)
		if body := set.Bytes()[header:]; !bytes.Equal(body, encoded(t, ks, mem.New())) {
			t.Errorf("%s: SerializeAll's body is not Encode against an empty memory", name)
		}
		got, err := ckpt.DeserializeAll(&set)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(ks) {
			t.Fatalf("%s: %d checkpoints read back, %d written", name, len(got), len(ks))
		}
		for i, k := range ks {
			g := got[i]
			if g.PC != k.PC || g.X != k.X || g.F != k.F || g.InstRet != k.InstRet || g.Interval != k.Interval || g.Weight != k.Weight {
				t.Errorf("%s: checkpoint %d reads back other registers or another shell", name, i)
			}
			var a, b bytes.Buffer
			if err := g.Mem.Serialize(&a); err != nil {
				t.Fatal(err)
			}
			if err := k.Mem.Serialize(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s: checkpoint %d reads back another image", name, i)
			}
		}
	}
}
