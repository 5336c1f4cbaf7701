package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// countdown is a program whose final a0 depends on every iteration, so
// divergence after a restore is detectable.
const countdown = `
	.data
buf:
	.space 8
	.text
	li   a0, 0
	li   t0, 1000
	la   t1, buf
loop:
	add  a0, a0, t0
	sd   a0, 0(t1)       # memory state matters too
	ld   t2, 0(t1)
	add  a0, a0, t2
	srai a0, a0, 1
	addi t0, t0, -1
	bnez t0, loop
	li   a7, 93
	ecall
`

func prep(t *testing.T) *sim.CPU {
	t.Helper()
	p, err := asm.Assemble(countdown)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.New()
	c.Load(p)
	return c
}

func finish(t *testing.T, c *sim.CPU) int64 {
	t.Helper()
	if _, err := c.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("did not halt")
	}
	return c.Exit
}

func TestCaptureRestoreDeterminism(t *testing.T) {
	// Reference: run to completion without checkpointing.
	ref := prep(t)
	want := finish(t, ref)

	// Run half way, capture, finish, then restore and finish again.
	c := prep(t)
	if _, err := c.Run(2500); err != nil {
		t.Fatal(err)
	}
	k := Capture(c)
	if got := finish(t, c); got != want {
		t.Fatalf("first continuation: %d, want %d", got, want)
	}

	c2 := sim.New()
	p, _ := asm.Assemble(countdown)
	c2.Load(p) // establish the text window
	k.Restore(c2)
	if c2.InstRet != 2500 {
		t.Fatalf("restored InstRet = %d", c2.InstRet)
	}
	if got := finish(t, c2); got != want {
		t.Fatalf("restored continuation: %d, want %d", got, want)
	}
}

func TestRestoreIsolatesMemory(t *testing.T) {
	c := prep(t)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	k := Capture(c)
	// Mutate the live CPU's memory after capture.
	c.Mem.Write64(0x100_0000, 0xDEAD)
	c2 := sim.New()
	k.Restore(c2)
	if c2.Mem.Read64(0x100_0000) == 0xDEAD {
		t.Fatal("checkpoint shared memory with live CPU")
	}
	// Mutating one restore must not affect another.
	c3 := sim.New()
	k.Restore(c3)
	c2.Mem.Write64(0x200, 7)
	if c3.Mem.Read64(0x200) == 7 {
		t.Fatal("two restores share memory")
	}
}

// TestConcurrentRestoresShareOneImage: eight goroutines restore one
// checkpoint at once and each writes every page of its memory. Each must
// read back only its own writes, and the image must serialize to the same
// bytes afterwards; under the race detector (make race) this also holds
// forking an image to reading it.
func TestConcurrentRestoresShareOneImage(t *testing.T) {
	c := prep(t)
	if _, err := c.Run(2500); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 16; p++ {
		c.Mem.Write64(0x4000_0000+p*mem.PageSize, p)
	}
	k := Capture(c)
	var before bytes.Buffer
	if err := k.Serialize(&before); err != nil {
		t.Fatal(err)
	}
	pages := pageKeys(t, k.Mem)

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			cpu := sim.New()
			k.Restore(cpu)
			for _, key := range pages {
				cpu.Mem.Write64(key<<mem.PageBits, g<<32|key)
			}
			for _, key := range pages {
				if got := cpu.Mem.Read64(key << mem.PageBits); got != g<<32|key {
					errs <- fmt.Errorf("restore %d reads %#x on page %#x, wrote %#x", g, got, key, g<<32|key)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var after bytes.Buffer
	if err := k.Serialize(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("writes to restored memories reached the checkpoint image")
	}
}

// pageKeys lists the page indices of m in Serialize's order.
func pageKeys(t *testing.T, m *mem.Memory) []uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	keys := make([]uint64, binary.LittleEndian.Uint64(b))
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(b[8+i*(8+mem.PageSize):])
	}
	return keys
}

// TestRestoreLeavesNoStaleTranslations: restoring into a CPU that has been
// running swaps its memory; nothing cached from the old memory (the mem
// TLB) may serve the restored CPU, and a restore needs only the text window
// attached, not the program loaded.
func TestRestoreLeavesNoStaleTranslations(t *testing.T) {
	ref := prep(t)
	want := finish(t, ref)

	c := prep(t)
	if _, err := c.Run(2500); err != nil {
		t.Fatal(err)
	}
	k := Capture(c)

	// Run the same CPU to the end — its accesses are now cached against
	// the memory it ran on — then restore twice and finish each time.
	if got := finish(t, c); got != want {
		t.Fatalf("first continuation: %d, want %d", got, want)
	}
	for round := 0; round < 2; round++ {
		k.Restore(c)
		if got := finish(t, c); got != want {
			t.Fatalf("continuation after restore %d into a used CPU: %d, want %d", round, got, want)
		}
	}

	p, _ := asm.Assemble(countdown)
	c2 := sim.New()
	c2.AttachText(p)
	k.Restore(c2)
	if got := finish(t, c2); got != want {
		t.Fatalf("continuation on a window-only CPU: %d, want %d", got, want)
	}
}

// TestSerializeRoundTrip: a checkpoint passes through SerializeAll and
// DeserializeAll with its registers, position and metadata, and the
// decoded one continues to the same result.
func TestSerializeRoundTrip(t *testing.T) {
	c := prep(t)
	if _, err := c.Run(1234); err != nil {
		t.Fatal(err)
	}
	k := Capture(c)
	k.Interval = 42
	k.Weight = 0.375

	var buf bytes.Buffer
	if err := SerializeAll(&buf, []*Checkpoint{k}); err != nil {
		t.Fatal(err)
	}
	ks, err := DeserializeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	k2 := ks[0]
	if k2.PC != k.PC || k2.InstRet != k.InstRet || k2.X != k.X || k2.F != k.F {
		t.Fatal("architectural state mismatch after round trip")
	}
	if k2.Interval != 42 || k2.Weight != 0.375 {
		t.Fatalf("metadata mismatch: %d %v", k2.Interval, k2.Weight)
	}

	// The deserialized checkpoint must continue to the same result.
	ref := prep(t)
	want := finish(t, ref)
	c2 := sim.New()
	p, _ := asm.Assemble(countdown)
	c2.Load(p)
	k2.Restore(c2)
	if got := finish(t, c2); got != want {
		t.Fatalf("deserialized continuation: %d, want %d", got, want)
	}
}

// TestDeserializeTruncatedStreams: every strict prefix of two checkpoints
// in SerializeAll's format — cut in the count, a shell, the registers or
// an image — fails cleanly, never panics.
func TestDeserializeTruncatedStreams(t *testing.T) {
	c := prep(t)
	if _, err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	k1 := Capture(c)
	if _, err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SerializeAll(&buf, []*Checkpoint{k1, Capture(c)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 4, 8, 20, 56, 64, 300, 600, 700, len(full) / 2, len(full) - 1} {
		if _, err := DeserializeAll(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("prefix of %d bytes deserialized without error", n)
		}
	}
}

func TestCheckpointMetadataDefaults(t *testing.T) {
	c := prep(t)
	k := Capture(c)
	if k.Interval != 0 || k.Weight != 0 {
		t.Errorf("fresh checkpoint carries metadata: %d %v", k.Interval, k.Weight)
	}
	if k.InstRet != c.InstRet || k.PC != c.PC {
		t.Error("capture did not copy architectural position")
	}
}
