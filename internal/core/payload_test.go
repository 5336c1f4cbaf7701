package core

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/binio"
	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// serialized is m in mem.Memory.Serialize's format: two memories hold the
// same pages with the same bytes exactly when these are equal.
func serialized(t *testing.T, m *mem.Memory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storedCheckpoints reads a checkpoint payload's stored checkpoints as
// written, without laying them over the entry image.
func storedCheckpoints(t *testing.T, payload []byte, points int) []*ckpt.Checkpoint {
	t.Helper()
	rd := bufio.NewReader(flate.NewReader(bytes.NewReader(payload)))
	br := binio.NewReader(rd)
	for n := br.Int(); n > 0; n-- {
		br.I64()
	}
	if br.Err() != nil {
		t.Fatal(br.Err())
	}
	cks, err := ckpt.DeserializeAll(rd)
	if err != nil || len(cks) != points {
		t.Fatalf("%d stored checkpoints for %d points: %v", len(cks), points, err)
	}
	return cks
}

// TestPayloadsHoldWhatTheKeyCannotRebuild: on every workload under the
// BBV-only and the bbv+mav spec, the bbv entry a cold Profile writes
// decodes to its vectors, and its checkpoint entry stores for each point
// exactly the pages that differ from the entry checkpoint's image
// (Workload.Entry) and decodes over that image to checkpoints page for
// page equal to the ones the pass captured.
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
			for i, k := range storedCheckpoints(t, ckptPayload, p.NumSimPoints()) {
				captured := p.Checkpoints[i]
				delta, err := captured.Mem.Delta(entry.Mem)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialized(t, k.Mem), serialized(t, delta)) {
					t.Errorf("%s: point %d stores %d pages; %d differ from the entry image", label, i, k.Mem.PageCount(), delta.PageCount())
				}
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
	const want = "b6addfd7a628b1c8fc9002d91d5fd1ddc6f811abf3b6c32e58488c7c00221500"
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
