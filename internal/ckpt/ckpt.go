// Package ckpt implements architectural checkpoints: a serializable snapshot
// of the CPU's architectural state (PC, integer/FP registers, retired
// instruction count) plus the touched memory pages. It plays the role of the
// Spike-generated checkpoints that Chipyard's checkpointing infrastructure
// loads into the RTL simulator in the paper's flow (Fig. 4). Every run
// starts from one: a program's first checkpoint is its entry
// (workloads.Workload.Entry), so a full run and a simulation point are
// restored the same way.
//
// A checkpoint's memory is an image: a copy-on-write mem.Memory that owns
// no page and is never written. Capture and Restore fork it (mem.Memory.Fork)
// rather than copy it, so taking a checkpoint costs a page-map copy, and a
// restored run copies only the pages it writes, into the frames of the
// pages the CPU's previous run wrote. Any number of goroutines may Restore
// one checkpoint at once. An image is only forked, compared and serialized,
// never read through mem.Memory's accessors, which fill its TLB.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// magic identifies the serialized format (and its version).
const magic = 0x52565043_4B505431 // "RVPCKPT1"

// Checkpoint is one architectural checkpoint. Weight and interval metadata
// from the SimPoint selection ride along so a checkpoint is self-describing.
type Checkpoint struct {
	PC      uint64
	X       [32]uint64
	F       [32]uint64
	InstRet uint64 // instructions retired before this point
	Mem     *mem.Memory

	// SimPoint metadata
	Interval int64   // interval index this checkpoint starts
	Weight   float64 // fraction of program execution it represents
}

// Capture snapshots the CPU. The memory image is a fork of the CPU's
// memory, so the CPU can keep running: its writes from now on copy the
// pages they touch and never reach the image.
func Capture(c *sim.CPU) *Checkpoint {
	return &Checkpoint{
		PC:      c.PC,
		X:       c.X,
		F:       c.F,
		InstRet: c.InstRet,
		Mem:     c.Mem.Fork(),
	}
}

// Restore loads the checkpoint into the CPU, which it leaves not halted,
// with no exit code and no output. The CPU's memory becomes a fork of the
// checkpoint's image: its own memory Reset to the image, which recycles
// the page frames an earlier run wrote (mem.Memory.Reset), or a new Fork
// when it has none. One checkpoint can seed many runs, concurrently too:
// either way the image is only read.
func (k *Checkpoint) Restore(c *sim.CPU) {
	c.PC = k.PC
	c.X = k.X
	c.F = k.F
	c.InstRet = k.InstRet
	c.Halted, c.Exit, c.Stdout = false, 0, c.Stdout[:0]
	if c.Mem == nil {
		c.Mem = k.Mem.Fork()
	} else {
		c.Mem.Reset(k.Mem)
	}
}

// Serialize writes the checkpoint to w.
func (k *Checkpoint) Serialize(w io.Writer) error {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var b8 [8]byte
	put := func(v uint64) {
		le.PutUint64(b8[:], v)
		buf.Write(b8[:])
	}
	put(magic)
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
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	return k.Mem.Serialize(w)
}

// SerializeAll writes a slice of checkpoints (a count, then each
// checkpoint in Serialize's format) — the on-disk shape of a profile's
// checkpoint set in the artifact cache.
func SerializeAll(w io.Writer, ks []*Checkpoint) error {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(ks)))
	if _, err := w.Write(b8[:]); err != nil {
		return err
	}
	for _, k := range ks {
		if err := k.Serialize(w); err != nil {
			return err
		}
	}
	return nil
}

// DeserializeAll reads a checkpoint slice in SerializeAll's format. The
// count is read before any checkpoint it promises, so it sizes nothing:
// the slice grows as each checkpoint decodes.
func DeserializeAll(r io.Reader) ([]*Checkpoint, error) {
	var b8 [8]byte
	if _, err := io.ReadFull(r, b8[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint count: %w", err)
	}
	n := binary.LittleEndian.Uint64(b8[:])
	if n > 1<<20 {
		return nil, fmt.Errorf("ckpt: unreasonable checkpoint count %d", n)
	}
	ks := []*Checkpoint{}
	for i := uint64(0); i < n; i++ {
		k, err := Deserialize(r)
		if err != nil {
			return nil, fmt.Errorf("ckpt: checkpoint %d: %w", i, err)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// Deserialize reads a checkpoint in the format produced by Serialize.
func Deserialize(r io.Reader) (*Checkpoint, error) {
	var b8 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	m, err := get()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	k := &Checkpoint{Mem: mem.New()}
	if k.PC, err = get(); err != nil {
		return nil, err
	}
	for i := range k.X {
		if k.X[i], err = get(); err != nil {
			return nil, err
		}
	}
	for i := range k.F {
		if k.F[i], err = get(); err != nil {
			return nil, err
		}
	}
	if k.InstRet, err = get(); err != nil {
		return nil, err
	}
	iv, err := get()
	if err != nil {
		return nil, err
	}
	k.Interval = int64(iv)
	wBits, err := get()
	if err != nil {
		return nil, err
	}
	k.Weight = math.Float64frombits(wBits)
	if err := k.Mem.Deserialize(r); err != nil {
		return nil, err
	}
	return k, nil
}
