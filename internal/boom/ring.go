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

func (r *seqRing) len() int          { return r.n }
func (r *seqRing) front() uint64     { return r.buf[r.head] }
func (r *seqRing) at(i int) uint64   { return r.buf[(r.head+i)&r.mask] }
func (r *seqRing) pushBack(s uint64) { r.buf[(r.head+r.n)&r.mask] = s; r.n++ }

func (r *seqRing) popFront() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

// reset sizes the ring for capacity sequence numbers and empties it.
func (r *seqRing) reset(capacity int) {
	sz := pow2(capacity)
	r.buf, r.mask = sized(r.buf, sz), sz-1
	r.head, r.n = 0, 0
}
