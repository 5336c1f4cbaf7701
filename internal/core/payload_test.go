package core

import (
	"bytes"
	"cmp"
	"compress/flate"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binio"
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/metrics"
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

// storedPoint is one point of a checkpoint payload as it is stored: the
// index of the shell it fills, its registers (Mem nil) and its pages in
// stored order, each page's bytes as written — XORed with the reference
// page at its index when the reference has one.
type storedPoint struct {
	index int
	k     ckpt.Checkpoint
	keys  []uint64
	pages [][]byte
}

// storedCheckpoints reads a checkpoint payload's points as stored, without
// rebuilding any image. The payload names no point: they are the shells in
// program order, by InstRet, ties by index.
func storedCheckpoints(t testing.TB, payload []byte, shells []*ckpt.Checkpoint) []storedPoint {
	t.Helper()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(raw)
	br := binio.NewReader(rd)
	pts := make([]storedPoint, len(shells))
	for i := range pts {
		pts[i].index = i
	}
	slices.SortStableFunc(pts, func(a, b storedPoint) int {
		return cmp.Compare(shells[a.index].InstRet, shells[b.index].InstRet)
	})
	for i := range pts {
		p := &pts[i]
		p.k.PC = br.U64()
		for r := range p.k.X {
			p.k.X[r] = br.U64()
		}
		for r := range p.k.F {
			p.k.F[r] = br.U64()
		}
		for n := br.Len(rd.Len() / mem.PageSize); n > 0; n-- {
			p.keys = append(p.keys, br.U64())
			page := make([]byte, mem.PageSize)
			if _, err := io.ReadFull(rd, page); err != nil {
				t.Fatal(err)
			}
			p.pages = append(p.pages, page)
		}
	}
	if br.Err() != nil || rd.Len() != 0 {
		t.Fatalf("%d stored points, %d bytes left: %v", len(pts), rd.Len(), br.Err())
	}
	return pts
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
// program order (InstRet, ties by selection index), each as its registers
// and exactly the pages that differ from the previous point's image — the
// first point's from the entry checkpoint's (Workload.Entry) — XORed with
// the page they replace, and nothing else. Into the shells the selection
// rebuilds it decodes to checkpoints page for page equal to the ones the
// pass captured, each leaving the warm-up the profile reports.
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
			cks, warmups := shells(p.Selection, p.Interval, spec.ResolveWarmup(p.Interval, fc.WarmupInsts))
			if err := decodeCkptPayload(ckptPayload, cks, entry.Mem); err != nil {
				t.Fatalf("%s: decoding the checkpoint entry: %v", label, err)
			}
			if !reflect.DeepEqual(warmups, p.WarmupInsts) {
				t.Errorf("%s: warm-ups %v, want %v", label, warmups, p.WarmupInsts)
			}
			ref := pagesOf(t, entry.Mem)
			for _, sp := range storedCheckpoints(t, ckptPayload, cks) {
				i := sp.index
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
			err = decodeCkptPayload(payload, shellsOf(p.Checkpoints), entry.Mem)
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
	const want = "482fee8b7dd7f4b80f9b70274a282660a238026855194de9c3cc38264c2e4348"
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

// TestDecodedCheckpointsDigest pins one SHA-256 over what the checkpoint
// stage hands Run when it reads its entry back: for every workload at
// ScaleTiny under the zero spec and sampling.Recommended(), a cold
// cache-backed Profile writes the checkpoint entry and a second Runner on
// the same cache decodes it. Per point it hashes the registers, InstRet,
// Interval, Weight, the warm-up and the image in mem.Memory.Serialize's
// format. It holds across any change to how a checkpoint entry is stored.
func TestDecodedCheckpointsDigest(t *testing.T) {
	const want = "3dad72fdd9f6593cc679b1cb6a766073474ec7a3ade9024810daa1183d27418c"
	ctx := context.Background()
	h := sha256.New()
	var b8 [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		h.Write(b8[:])
	}
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
			label := fmt.Sprintf("%s/%s", name, spec.Features)
			dir := t.TempDir()
			if _, err := New(DefaultFlowConfig(), WithCache(dir), WithSampling(spec)).Profile(ctx, w); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			reg := metrics.NewRegistry()
			p, err := New(DefaultFlowConfig(), WithCache(dir), WithSampling(spec), WithMetrics(reg)).Profile(ctx, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if hits := reg.Counter("artifact.checkpoint.hit").Value(); hits != 1 {
				t.Fatalf("%s: the second Profile read %d checkpoint entries, want 1", label, hits)
			}
			fmt.Fprintf(h, "%s %d\n", label, len(p.Checkpoints))
			for i, k := range p.Checkpoints {
				put(k.PC)
				for _, v := range k.X {
					put(v)
				}
				for _, v := range k.F {
					put(v)
				}
				put(k.InstRet)
				put(uint64(k.Interval))
				put(math.Float64bits(k.Weight))
				put(uint64(p.WarmupInsts[i]))
				h.Write(serialized(t, k.Mem))
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("decoded checkpoints digest %s, want %s", got, want)
	}
}
