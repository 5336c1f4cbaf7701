package core

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binio"
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// serialized is m in mem.Memory.Serialize's format: two memories hold the
// same pages with the same bytes exactly when these are equal.
func serialized(t testing.TB, m *mem.Memory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storedPoint is one point of a checkpoint payload as it is stored: its
// selection index, its registers (Mem nil) and its pages in stored order,
// each page's bytes as written — XORed with the reference page at its
// index when the reference has one.
type storedPoint struct {
	index int
	k     ckpt.Checkpoint
	keys  []uint64
	pages [][]byte
}

// storedCheckpoints reads a checkpoint payload's warm-ups and its points as
// stored, without rebuilding any image.
func storedCheckpoints(t testing.TB, payload []byte, points int) ([]int64, []storedPoint) {
	t.Helper()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(raw)
	br := binio.NewReader(rd)
	warmups := make([]int64, br.Len(points))
	for i := range warmups {
		warmups[i] = br.I64()
	}
	pts := make([]storedPoint, len(warmups))
	for i := range pts {
		p := &pts[i]
		p.index = br.Int()
		p.k.PC = br.U64()
		for r := range p.k.X {
			p.k.X[r] = br.U64()
		}
		for r := range p.k.F {
			p.k.F[r] = br.U64()
		}
		p.k.InstRet = br.U64()
		p.k.Interval = br.I64()
		p.k.Weight = br.F64()
		for n := br.Len(rd.Len() / mem.PageSize); n > 0; n-- {
			p.keys = append(p.keys, br.U64())
			page := make([]byte, mem.PageSize)
			if _, err := io.ReadFull(rd, page); err != nil {
				t.Fatal(err)
			}
			p.pages = append(p.pages, page)
		}
	}
	if br.Err() != nil || len(pts) != points || rd.Len() != 0 {
		t.Fatalf("%d stored points for %d, %d bytes left: %v", len(pts), points, rd.Len(), br.Err())
	}
	return warmups, pts
}

// pagesOf is m's pages by index, each as its bytes.
func pagesOf(t testing.TB, m *mem.Memory) map[uint64][]byte {
	b := serialized(t, m)
	pages := map[uint64][]byte{}
	for rec := b[8:]; len(rec) > 0; rec = rec[8+mem.PageSize:] {
		pages[binary.LittleEndian.Uint64(rec)] = rec[8 : 8+mem.PageSize]
	}
	return pages
}

// TestPayloadsHoldWhatTheKeyCannotRebuild: on every workload under the
// BBV-only and the bbv+mav spec, the bbv entry a cold Profile writes
// decodes to its vectors, and its checkpoint entry stores the points in
// program order (InstRet, ties by selection index), each with exactly the
// pages that differ from the previous point's image — the first point's
// from the entry checkpoint's (Workload.Entry) — XORed with the page they
// replace, and decodes to checkpoints page for page equal to the ones the
// pass captured.
func TestPayloadsHoldWhatTheKeyCannotRebuild(t *testing.T) {
	fc := DefaultFlowConfig()
	ctx := context.Background()
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
			label := fmt.Sprintf("%s/%s", name, spec.Features)
			r := New(fc, WithCache(t.TempDir()), WithSampling(spec))
			p, err := r.Profile(ctx, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			keys := r.profileKeys(w, spec)

			bbvPayload, _, ok := r.Cache().Get(keys.bbv)
			if !ok {
				t.Fatalf("%s: no bbv entry", label)
			}
			v, m, insts, blocks, err := decodeBBVPayloadSpec(bbvPayload, spec)
			if err != nil {
				t.Fatalf("%s: decoding the bbv entry: %v", label, err)
			}
			if !reflect.DeepEqual(v, p.Vectors) || !reflect.DeepEqual(m, p.MAVs) || insts != p.TotalInsts || blocks != p.NumBlocks {
				t.Errorf("%s: the bbv entry decodes to a different profile", label)
			}

			entry, err := w.Entry()
			if err != nil {
				t.Fatal(err)
			}
			ckptPayload, _, ok := r.Cache().Get(keys.ckpt)
			if !ok {
				t.Fatalf("%s: no checkpoint entry", label)
			}
			cks, warmups, err := decodeCkptPayload(ckptPayload, p.NumSimPoints(), entry.Mem)
			if err != nil {
				t.Fatalf("%s: decoding the checkpoint entry: %v", label, err)
			}
			if !reflect.DeepEqual(warmups, p.WarmupInsts) {
				t.Errorf("%s: warm-ups %v, want %v", label, warmups, p.WarmupInsts)
			}
			ref := pagesOf(t, entry.Mem)
			_, stored := storedCheckpoints(t, ckptPayload, p.NumSimPoints())
			for j, sp := range stored {
				i := sp.index
				if j > 0 {
					if prev := stored[j-1]; sp.k.InstRet < prev.k.InstRet || (sp.k.InstRet == prev.k.InstRet && i < prev.index) {
						t.Errorf("%s: point %d is stored after point %d", label, i, prev.index)
					}
				}
				captured := p.Checkpoints[i]
				img := pagesOf(t, captured.Mem)
				var want []uint64
				for key, page := range img {
					if old, ok := ref[key]; !ok || !bytes.Equal(old, page) {
						want = append(want, key)
					}
				}
				slices.Sort(want)
				if !slices.Equal(sp.keys, want) {
					t.Errorf("%s: point %d stores %d pages; %d differ from the previous point's image", label, i, len(sp.keys), len(want))
				}
				for n, key := range sp.keys {
					page := slices.Clone(img[key])
					if old, ok := ref[key]; ok {
						subtle.XORBytes(page, page, old)
					}
					if !bytes.Equal(sp.pages[n], page) {
						t.Errorf("%s: point %d stores page %#x as other bytes than its XOR with the previous image's", label, i, key)
					}
				}
				ref = img
				if !bytes.Equal(serialized(t, cks[i].Mem), serialized(t, captured.Mem)) {
					t.Errorf("%s: point %d decodes to a memory that differs from the captured one", label, i)
				}
				if cks[i].PC != captured.PC || cks[i].X != captured.X || cks[i].F != captured.F ||
					cks[i].InstRet != captured.InstRet || cks[i].Interval != captured.Interval || cks[i].Weight != captured.Weight {
					t.Errorf("%s: point %d decodes to different registers or metadata", label, i)
				}
			}
		}
	}
}

// TestTarfindCheckpointDecodeAllocation: tarfind's checkpoints at
// ScaleDefault differ from its ~19 MB entry image in almost no page. Stored
// whole, its seven images decoded to 156.9 MB of fresh pages; stored as
// deltas over the workload's one entry image, decoding copies no page of
// it, so it must allocate less than half that image (it measured 1.6 MB).
func TestTarfindCheckpointDecodeAllocation(t *testing.T) {
	w, err := workloads.Build("tarfind", workloads.ScaleDefault)
	if err != nil {
		t.Fatal(err)
	}
	r := New(DefaultFlowConfig(), WithCache(t.TempDir()))
	p, err := r.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := r.Cache().Get(r.profileKeys(w, sampling.Spec{}).ckpt)
	if !ok {
		t.Fatal("no checkpoint entry")
	}
	got := allocatedBy(func() {
		entry, eerr := w.Entry()
		if eerr == nil {
			_, _, err = decodeCkptPayload(payload, p.NumSimPoints(), entry.Mem)
		} else {
			err = eerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 8_000_000
	if got > limit {
		t.Errorf("decoding tarfind's %d checkpoints allocated %d bytes, over %d", p.NumSimPoints(), got, limit)
	}
	t.Logf("decoding %d checkpoints (%d payload bytes) allocated %.1f MB", p.NumSimPoints(), len(payload), float64(got)/1e6)
}

// TestCheckpointPayloadDigest pins one SHA-256 over the checkpoint entries
// a cold, cache-backed profile writes for every workload at ScaleTiny,
// under the zero spec and under sampling.Recommended(). It moves with the
// capture points, the captured registers and pages, the base the pages are
// stored against and the codec's bytes, and with nothing else.
func TestCheckpointPayloadDigest(t *testing.T) {
	const want = "91fd096f5c0032f578f12fd9d6386f2c2a15e106358e2325ee0c66a216a1b373"
	ctx := context.Background()
	h := sha256.New()
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
			r := New(DefaultFlowConfig(), WithCache(t.TempDir()))
			keys := r.profileKeys(w, spec)
			if _, _, err := r.profileWith(ctx, w, spec, keys, nil); err != nil {
				t.Fatalf("%s/%s: %v", name, spec.Features, err)
			}
			payload, _, ok := r.Cache().Get(keys.ckpt)
			if !ok {
				t.Fatalf("%s/%s: no checkpoint entry", name, spec.Features)
			}
			fmt.Fprintf(h, "%s/%s %d\n", name, spec.Features, len(payload))
			h.Write(payload)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("checkpoint payload digest %s, want %s", got, want)
	}
}

// TestCheckpointPayloadSizeCeiling holds the checkpoint entries of the two
// workloads whose points rewrite the most data, at ScaleDefault under the
// zero spec, to 1.03 × what chaining each point's pages to the previous
// point's measured. Stored as deltas against the load image they were
// 961,991 and 372,962 bytes; a payload that goes back to that fails here.
func TestCheckpointPayloadSizeCeiling(t *testing.T) {
	for _, c := range []struct {
		name     string
		measured int
	}{{"qsort", 477_164}, {"patricia", 137_177}} {
		w, err := workloads.Build(c.name, workloads.ScaleDefault)
		if err != nil {
			t.Fatal(err)
		}
		r := New(FlowConfigFor(workloads.ScaleDefault), WithCache(t.TempDir()))
		if _, err := r.Profile(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		payload, _, ok := r.Cache().Get(r.profileKeys(w, sampling.Spec{}).ckpt)
		if !ok {
			t.Fatalf("%s: no checkpoint entry", c.name)
		}
		if limit := c.measured * 103 / 100; len(payload) > limit {
			t.Errorf("%s: checkpoint payload is %d bytes, over its %d-byte ceiling", c.name, len(payload), limit)
		}
	}
}
