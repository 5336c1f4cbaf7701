package boom

import (
	"fmt"
	"io"

	"repro/internal/binio"
)

// Binary codec for Stats, used by the artifact cache to persist a detailed
// measurement. The encoding is canonical (same Stats → same bytes) so
// cached measurements can be byte-compared against recomputations.

// statsMagic identifies the serialized Stats format ("BMSTATS1").
const statsMagic = 0x424D5354_41545331

const maxSlotCycles = 1 << 16 // sanity bound on per-slot array length

// EncodeStats writes s in the binary format read by DecodeStats.
func EncodeStats(w io.Writer, s *Stats) error {
	bw := binio.NewWriter(w)
	bw.U64(statsMagic)
	bw.U64(s.Cycles)
	bw.U64(s.Insts)
	bw.U64(s.Branches)
	bw.U64(s.Mispredicts)
	bw.U64(s.BTBMisses)
	bw.U64(s.Loads)
	bw.U64(s.Stores)
	bw.U64(s.DCacheHits)
	bw.U64(s.DCacheMisses)
	bw.U64(s.ICacheHits)
	bw.U64(s.ICacheMisses)
	bw.U64(s.L2Hits)
	bw.U64(s.L2Misses)
	bw.U64(s.StoreForward)
	for c := range s.Comp {
		a := &s.Comp[c]
		bw.U64(a.Reads)
		bw.U64(a.Writes)
		bw.U64(a.CAMSearches)
		bw.U64(a.Shifts)
		bw.U64(a.Occupancy)
	}
	for _, v := range s.ExecOps {
		bw.U64(v)
	}
	bw.Int(len(s.IntIssueSlotCycles))
	for _, v := range s.IntIssueSlotCycles {
		bw.U64(v)
	}
	return bw.Err()
}

// DecodeStats reads a Stats in the format produced by EncodeStats.
func DecodeStats(r io.Reader) (*Stats, error) {
	br := binio.NewReader(r)
	if m := br.U64(); br.Err() == nil && m != statsMagic {
		return nil, fmt.Errorf("boom: bad stats magic %#x", m)
	}
	s := &Stats{}
	s.Cycles = br.U64()
	s.Insts = br.U64()
	s.Branches = br.U64()
	s.Mispredicts = br.U64()
	s.BTBMisses = br.U64()
	s.Loads = br.U64()
	s.Stores = br.U64()
	s.DCacheHits = br.U64()
	s.DCacheMisses = br.U64()
	s.ICacheHits = br.U64()
	s.ICacheMisses = br.U64()
	s.L2Hits = br.U64()
	s.L2Misses = br.U64()
	s.StoreForward = br.U64()
	for c := range s.Comp {
		a := &s.Comp[c]
		a.Reads = br.U64()
		a.Writes = br.U64()
		a.CAMSearches = br.U64()
		a.Shifts = br.U64()
		a.Occupancy = br.U64()
	}
	for i := range s.ExecOps {
		s.ExecOps[i] = br.U64()
	}
	s.IntIssueSlotCycles = make([]uint64, br.Alloc(br.Len(maxSlotCycles), 8))
	for i := range s.IntIssueSlotCycles {
		s.IntIssueSlotCycles[i] = br.U64()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("boom: decoding stats: %w", err)
	}
	return s, nil
}
