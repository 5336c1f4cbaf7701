package boom

// seqRing is a fixed-capacity FIFO of µop sequence numbers backed by a
// power-of-two array: the store queue, a strict FIFO whose occupancy the
// configuration bounds.
type seqRing struct {
	buf  []uint64
	mask int
	head int
	n    int
}

func newSeqRing(capacity int) seqRing {
	sz := pow2(capacity)
	return seqRing{buf: make([]uint64, sz), mask: sz - 1}
}

func (r *seqRing) len() int          { return r.n }
func (r *seqRing) front() uint64     { return r.buf[r.head] }
func (r *seqRing) at(i int) uint64   { return r.buf[(r.head+i)&r.mask] }
func (r *seqRing) pushBack(s uint64) { r.buf[(r.head+r.n)&r.mask] = s; r.n++ }

func (r *seqRing) popFront() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

func (r *seqRing) reset() { r.head, r.n = 0, 0 }
