package boom

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrPipelineBusy is returned by Warm on a core with µops in flight:
// functional warming feeds the tables in program order, which holds only
// while nothing fetched is still waiting to train or touch a cache.
var ErrPipelineBusy = errors.New("boom: warm needs an empty pipeline")

// Warm consumes up to n records from next in program order and warms the
// front end and the caches with them — functional warming (DESIGN §7,
// sampling). It touches no µop, no timing and no window: the cycle count,
// the retired count and the pipeline stay as they were. It returns the
// number of records consumed, fewer than n only at the end of the trace.
//
// The predictor, BTB and RAS are trained through the same bpred.train
// entry fetch uses, so their state after Warm(n) and a detailed run of the
// rest is exactly a detailed run's. The caches are an approximation: the
// L1I is read per fetch group and the L1D per load in program order (a
// detailed run reads the L1D in issue order and skips store-forwarded
// loads), stores allocate as commit does, and the L2 sees every L1 miss in
// program order rather than interleaved by timing.
func (c *Core) Warm(next func(*sim.Retired) bool, n uint64) (uint64, error) {
	if c.peeked || c.head != c.tail {
		return 0, fmt.Errorf("%w: %d µops in flight", ErrPipelineBusy, c.tail-c.head)
	}
	r := &c.trc
	group := true // the next record starts a fetch group
	var line uint64
	for i := uint64(0); i < n; i++ {
		if !next(r) {
			return i, nil
		}
		st := c.decode(r)
		if l := r.PC >> fetchLineShift; group || l != line {
			line, group = l, false
			if !c.icache.access(r.PC) {
				c.l2.access(r.PC)
			}
		}
		switch {
		case st.isLoad:
			if !c.dcache.access(r.MemAddr) {
				c.l2.access(r.MemAddr)
			}
		case st.isStore:
			// commit's write-allocate: a hit leaves the LRU order alone.
			if !c.dcache.probe(r.MemAddr) {
				c.dcache.access(r.MemAddr)
				c.l2.access(r.MemAddr)
			}
		case isControl(st.class):
			group = endsFetchGroup(st.class, r.Taken, c.bp.train(st, r.PC, r.Taken, r.NextPC))
		}
	}
	return n, nil
}
