// Package ckpt implements architectural checkpoints: a snapshot of the
// CPU's architectural state (PC, integer/FP registers, retired instruction
// count) plus its memory pages. It plays the role of the Spike-generated
// checkpoints that Chipyard's checkpointing infrastructure loads into the
// RTL simulator in the paper's flow (Fig. 4). Every run starts from one: a
// program's first checkpoint is its entry (workloads.Workload.Entry), so a
// full run and a simulation point are restored the same way.
//
// A checkpoint's memory is an image: a copy-on-write mem.Memory that owns
// no page and is never written. Capture and Restore fork it (mem.Memory.Fork)
// rather than copy it, so taking a checkpoint costs a page-map copy, and a
// restored run copies only the pages it writes, into the frames of the
// pages the CPU's previous run wrote. Any number of goroutines may Restore
// one checkpoint at once. An image is only forked, compared and serialized,
// never read through mem.Memory's accessors, which fill its TLB.
//
// A set of checkpoints is stored one way: Encode writes, in program order,
// each point's registers and its image as a delta against the previous
// point's, the first against a base image the caller names, and Decode
// reads that back into shells — checkpoints whose InstRet, Interval and
// Weight the caller already knows. The flow's cache entry is Encode against
// the workload's entry image, its shells rebuilt from the SimPoint
// selection; SerializeAll and DeserializeAll are Encode and Decode against
// an empty memory behind a count and the shells. Serialize writes one
// checkpoint whole, for export; nothing reads it back.
package ckpt

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/binio"
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

// Serialize writes the checkpoint to w whole: magic, registers, InstRet,
// Interval and Weight, then its image (mem.Memory.Serialize). It is the
// one-file-per-point export of boomflow -mode profile -out; nothing reads
// it back.
func (k *Checkpoint) Serialize(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U64(magic)
	putRegs(bw, k)
	bw.U64(k.InstRet)
	bw.I64(k.Interval)
	bw.F64(k.Weight)
	if err := bw.Err(); err != nil {
		return err
	}
	return k.Mem.Serialize(w)
}

// Encode writes ks to w as the flow stores them: it walks the points in
// program order (InstRet, ties by position in ks) and writes, for each,
// its PC, X and F and then its image as a delta against the previous
// point's (mem.DeltaWriter), the first point's against base. Consecutive
// points share most of their pages, so a stored page is mostly zero runs.
// InstRet, Interval and Weight are not written: whoever decodes knows them
// already (Decode). Each image must hold every page the one before it
// holds, as the images of one run do.
func Encode(w io.Writer, ks []*Checkpoint, base *mem.Memory) error {
	bw := binio.NewWriter(w)
	var d mem.DeltaWriter
	ref := base
	for _, i := range programOrder(ks) {
		k := ks[i]
		putRegs(bw, k)
		if err := bw.Err(); err != nil {
			return err
		}
		if err := d.WriteDelta(w, k.Mem, ref); err != nil {
			return fmt.Errorf("ckpt: checkpoint %d: %w", i, err)
		}
		ref = k.Mem
	}
	return nil
}

// Decode reads what Encode wrote into shells: checkpoints whose InstRet,
// Interval and Weight the caller has set, and which give the order the
// points were written in. It fills each one's PC, X, F and Mem, the image
// rebuilt over the previous point's, the first over base (mem.ReadDelta).
// What it accepts re-encodes, against the same base, byte for byte.
func Decode(r io.Reader, shells []*Checkpoint, base *mem.Memory) error {
	br := binio.NewReader(r)
	ref := base
	for _, i := range programOrder(shells) {
		k := shells[i]
		k.PC = br.U64()
		for j := range k.X {
			k.X[j] = br.U64()
		}
		for j := range k.F {
			k.F[j] = br.U64()
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("ckpt: checkpoint %d: %w", i, err)
		}
		var err error
		if k.Mem, err = mem.ReadDelta(r, ref); err != nil {
			return fmt.Errorf("ckpt: checkpoint %d: %w", i, err)
		}
		ref = k.Mem
	}
	return nil
}

// programOrder is the indices of ks by InstRet, ties by index.
func programOrder(ks []*Checkpoint) []int {
	order := make([]int, len(ks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := cmp.Compare(ks[i].InstRet, ks[j].InstRet); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	return order
}

// putRegs writes k's PC, X and F.
func putRegs(bw *binio.Writer, k *Checkpoint) {
	bw.U64(k.PC)
	for _, v := range k.X {
		bw.U64(v)
	}
	for _, v := range k.F {
		bw.U64(v)
	}
}

// SerializeAll writes a checkpoint slice whose shells no one can rebuild:
// a count, each checkpoint's InstRet, Interval and Weight, then the
// checkpoints in Encode's format against an empty memory.
func SerializeAll(w io.Writer, ks []*Checkpoint) error {
	bw := binio.NewWriter(w)
	bw.Int(len(ks))
	for _, k := range ks {
		bw.U64(k.InstRet)
		bw.I64(k.Interval)
		bw.F64(k.Weight)
	}
	if err := bw.Err(); err != nil {
		return err
	}
	return Encode(w, ks, mem.New())
}

// DeserializeAll reads a checkpoint slice in SerializeAll's format. The
// count is read before any shell it promises, so it sizes nothing: the
// slice grows as each shell is read.
func DeserializeAll(r io.Reader) ([]*Checkpoint, error) {
	br := binio.NewReader(r)
	n := br.Len(1 << 20)
	ks := []*Checkpoint{}
	for i := 0; i < n && br.Err() == nil; i++ {
		ks = append(ks, &Checkpoint{InstRet: br.U64(), Interval: br.I64(), Weight: br.F64()})
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: reading %d shells: %w", n, err)
	}
	if err := Decode(r, ks, mem.New()); err != nil {
		return nil, err
	}
	return ks, nil
}
