package boom

// uopRing is a fixed-capacity FIFO of µops backed by a power-of-two array.
// The ROB, fetch buffer, and store queue are all strict FIFOs whose
// occupancy is bounded by the configuration, so a ring replaces the old
// slide-forward slices (s = s[1:] + append) that leaked capacity off the
// front and reallocated the backing array every window's worth of
// instructions.
type uopRing struct {
	buf  []*uop
	mask int
	head int
	n    int
}

func newUopRing(capacity int) uopRing {
	sz := 1
	for sz < capacity {
		sz <<= 1
	}
	return uopRing{buf: make([]*uop, sz), mask: sz - 1}
}

func (r *uopRing) len() int      { return r.n }
func (r *uopRing) front() *uop   { return r.buf[r.head] }
func (r *uopRing) at(i int) *uop { return r.buf[(r.head+i)&r.mask] }

func (r *uopRing) pushBack(u *uop) {
	r.buf[(r.head+r.n)&r.mask] = u
	r.n++
}

func (r *uopRing) popFront() *uop {
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & r.mask
	r.n--
	return u
}

func (r *uopRing) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
