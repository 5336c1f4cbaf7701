package ckpt_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
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

// FuzzDeserializeAll: DeserializeAll never panics, allocates at most
// 256 KiB (one page map sized by a bounded count hint, ~145 KiB) plus 4×
// its input, and the checkpoints it accepts re-encode through SerializeAll
// to exactly the bytes it consumed. The seed is the checkpoint set the flow
// captures for bitcount at tiny scale, plus mutations of it.
func FuzzDeserializeAll(f *testing.F) {
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		f.Fatal(err)
	}
	p, err := core.New(core.DefaultFlowConfig()).Profile(context.Background(), w)
	if err != nil {
		f.Fatal(err)
	}
	var set bytes.Buffer
	if err := ckpt.SerializeAll(&set, p.Checkpoints); err != nil {
		f.Fatal(err)
	}
	seed := set.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<20)) // 8 MiB of pointers from eight bytes
	f.Add(append(binary.LittleEndian.AppendUint64(nil, uint64(len(p.Checkpoints)+1)), seed[8:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var ks []*ckpt.Checkpoint
		var err error
		got := allocatedBy(func() { ks, err = ckpt.DeserializeAll(rd) })
		if limit := uint64(256<<10 + 4*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := ckpt.SerializeAll(&again, ks); err != nil {
			t.Fatalf("re-encoding accepted checkpoints: %v", err)
		}
		if consumed := data[:len(data)-rd.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes re-encode to %d different ones", len(consumed), again.Len())
		}
	})
}
