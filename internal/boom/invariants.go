package boom

import "fmt"

// CheckInvariants enables per-cycle structural checking: every queue must
// respect its configured capacity, program order must be preserved in the
// ROB and store queue, in-flight register counts must stay within the
// physical register files, and the wake and completion lists must agree
// with the µop states. A checked core steps every cycle — Run never skips
// a quiet stretch — so it is also the reference the skipping path is
// compared against. It costs ~3× slowdown and is meant for tests.
func (c *Core) CheckInvariants(on bool) { c.checkInv = on }

func (c *Core) assertInvariants() {
	fail := func(format string, args ...interface{}) {
		panic("boom invariant: " + fmt.Sprintf(format, args...))
	}
	// The window: [head, mid) is the ROB, [mid, tail) the fetch buffer,
	// and with the lookahead the live µops fit in it without sharing a
	// slot.
	if c.head > c.mid || c.mid > c.tail {
		fail("window bounds head %d mid %d tail %d out of order", c.head, c.mid, c.tail)
	}
	if fb := c.tail - c.mid; fb > uint64(c.cfg.FetchBufferEntries) {
		fail("fetch buffer %d > %d", fb, c.cfg.FetchBufferEntries)
	}
	if rob := c.mid - c.head; rob > uint64(c.cfg.RobEntries) {
		fail("ROB %d > %d", rob, c.cfg.RobEntries)
	}
	live := c.tail
	if c.peeked {
		live++
	}
	if live-c.head > uint64(len(c.win)) {
		fail("%d live µops in a %d-slot window", live-c.head, len(c.win))
	}
	inROB := func(seq uint64) bool { return seq >= c.head && seq < c.mid }
	if len(c.intQ) > c.cfg.IntIssueSlots {
		fail("int IQ %d > %d", len(c.intQ), c.cfg.IntIssueSlots)
	}
	if len(c.memQ) > c.cfg.MemIssueSlots {
		fail("mem IQ %d > %d", len(c.memQ), c.cfg.MemIssueSlots)
	}
	if len(c.fpQ) > c.cfg.FpIssueSlots {
		fail("fp IQ %d > %d", len(c.fpQ), c.cfg.FpIssueSlots)
	}
	if c.stq.len() > c.cfg.StqEntries {
		fail("STQ %d > %d", c.stq.len(), c.cfg.StqEntries)
	}
	if c.ldqUsed < 0 || c.ldqUsed > c.cfg.LdqEntries {
		fail("LDQ %d of %d", c.ldqUsed, c.cfg.LdqEntries)
	}
	if c.intInFlight < 0 || c.intInFlight > c.cfg.IntPhysRegs-32 {
		fail("int in-flight writers %d of %d", c.intInFlight, c.cfg.IntPhysRegs-32)
	}
	if c.fpInFlight < 0 || c.fpInFlight > c.cfg.FpPhysRegs-32 {
		fail("fp in-flight writers %d of %d", c.fpInFlight, c.cfg.FpPhysRegs-32)
	}
	if c.mshrsBusy < 0 || c.mshrsBusy > c.cfg.DCacheMSHRs {
		fail("MSHRs busy %d of %d", c.mshrsBusy, c.cfg.DCacheMSHRs)
	}
	if c.wrongInt < 0 || len(c.intQ)+c.wrongInt > c.cfg.IntIssueSlots {
		fail("wrong-path int overflow: %d+%d > %d", len(c.intQ), c.wrongInt, c.cfg.IntIssueSlots)
	}
	// Program order: STQ sequence numbers strictly increase, within the ROB.
	for i := 0; i < c.stq.len(); i++ {
		seq := c.stq.at(i)
		if !inROB(seq) || !c.slot(seq).isStore || (i > 0 && seq <= c.stq.at(i-1)) {
			fail("STQ order violated at %d", i)
		}
	}
	// Issue queues hold only un-issued µops of the ROB; completed µops
	// must be gone.
	for _, q := range [][]ref{c.intQ, c.memQ, c.fpQ} {
		for _, r := range q {
			if u := c.at(r); u.state != stWaiting || !inROB(c.seqOf(r)) {
				fail("queued seq %d (state %d) is not a waiting ROB µop", c.seqOf(r), u.state)
			}
		}
	}
	// Rename map: a register's entry names an in-flight writer of it that
	// has not completed; renameNone is never written.
	if c.last[renameNone] != 0 {
		fail("the no-source rename entry names seq %d", c.seqOf(c.last[renameNone]))
	}
	for m, r := range c.last[:renameNone] {
		if r == 0 {
			continue
		}
		if u := c.at(r); !inROB(c.seqOf(r)) || u.state == stDone || int(u.dstMap) != m {
			fail("rename entry %d names seq %d (state %d), not a pending writer", m, c.seqOf(r), u.state)
		}
	}
	// Wakeup: a pend bit is set ⇔ its slot sits on the wake list of an
	// in-flight producer that has not completed. Every list entry is a
	// younger in-flight µop with the bit set (⇐); the entries number
	// exactly the set bits (⇒).
	var linked, pending int
	for seq := c.head; seq < c.mid; seq++ {
		p := c.slot(seq)
		for d := range p.wake {
			pending += int(p.pend >> d & 1)
			if p.state == stDone && p.wake[d] != 0 {
				fail("completed seq %d still has slot-%d waiters", seq, d)
			}
			for v := p.wake[d]; v != 0; v = c.at(v).wakeNext[d] {
				if u, vs := c.at(v), c.seqOf(v); u.pend>>d&1 == 0 || vs <= seq || vs >= c.mid {
					fail("seq %d on seq %d's slot-%d wake list with pend %03b", vs, seq, d, u.pend)
				}
				linked++
			}
		}
		if p.state != stIssued {
			continue
		}
		// Completions: an issued µop is queued once, in its doneAt slot,
		// within ringSize of now (the horizon skipQuiet scans).
		if p.doneAt <= c.cycle || p.doneAt-c.cycle >= ringSize {
			fail("seq %d issued at cycle %d completes at %d, outside the event ring", seq, c.cycle, p.doneAt)
		}
		queued := 0
		for r := c.evHead[p.doneAt%ringSize]; r != 0; r = c.at(r).evNext {
			if c.at(r) == p {
				queued++
			}
		}
		if queued != 1 {
			fail("issued seq %d is queued %d times in its completion slot", seq, queued)
		}
	}
	if linked != pending {
		fail("%d pend bits set, %d wake-list entries", pending, linked)
	}
	// ...and the slot about to complete holds nothing else (each slot is
	// audited the cycle before it fires, so every queued entry is).
	for r := c.evHead[(c.cycle+1)%ringSize]; r != 0; r = c.at(r).evNext {
		if u := c.at(r); u.state != stIssued || u.doneAt != c.cycle+1 || !inROB(c.seqOf(r)) {
			fail("seq %d (state %d, done at %d) completes at cycle %d", c.seqOf(r), u.state, u.doneAt, c.cycle+1)
		}
	}
}
