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
	if c.fetchBuf.len() > c.cfg.FetchBufferEntries {
		fail("fetch buffer %d > %d", c.fetchBuf.len(), c.cfg.FetchBufferEntries)
	}
	if c.rob.len() > c.cfg.RobEntries {
		fail("ROB %d > %d", c.rob.len(), c.cfg.RobEntries)
	}
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
	// Program order: ROB and STQ sequence numbers strictly increase.
	for i := 1; i < c.rob.len(); i++ {
		if c.rob.at(i).seq <= c.rob.at(i-1).seq {
			fail("ROB order violated at %d", i)
		}
	}
	for i := 1; i < c.stq.len(); i++ {
		if c.stq.at(i).seq <= c.stq.at(i-1).seq {
			fail("STQ order violated at %d", i)
		}
	}
	// Issue queues hold only un-issued uops; completed uops must be gone.
	for _, q := range [][]*uop{c.intQ, c.memQ, c.fpQ} {
		for _, u := range q {
			if u.state != stWaiting {
				fail("issued uop still queued: seq %d state %d", u.seq, u.state)
			}
		}
	}
	// Wakeup: a pend bit is set ⇔ its slot sits on the wake list of an
	// in-flight producer that has not completed. Every list entry is a
	// younger in-flight µop with the bit set (⇐); the entries number
	// exactly the set bits (⇒).
	oldest := c.seq + 1 // nothing in flight: every used µop is older
	if c.rob.len() > 0 {
		oldest = c.rob.front().seq
	}
	var linked, pending int
	for i := 0; i < c.rob.len(); i++ {
		p := c.rob.at(i)
		for d := range p.wake {
			pending += int(p.pend >> d & 1)
			if p.state == stDone && p.wake[d] != nil {
				fail("completed seq %d still has slot-%d waiters", p.seq, d)
			}
			for v := p.wake[d]; v != nil; v = v.wakeNext[d] {
				if v.pend>>d&1 == 0 || v.seq <= p.seq || v.seq > c.seq {
					fail("seq %d on seq %d's slot-%d wake list with pend %03b", v.seq, p.seq, d, v.pend)
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
			fail("seq %d issued at cycle %d completes at %d, outside the event ring", p.seq, c.cycle, p.doneAt)
		}
		queued := 0
		for u := c.evHead[p.doneAt%ringSize]; u != nil; u = u.evNext {
			if u == p {
				queued++
			}
		}
		if queued != 1 {
			fail("issued seq %d is queued %d times in its completion slot", p.seq, queued)
		}
	}
	if linked != pending {
		fail("%d pend bits set, %d wake-list entries", pending, linked)
	}
	// ...and the slot about to complete holds nothing else (each slot is
	// audited the cycle before it fires, so every queued entry is).
	for u := c.evHead[(c.cycle+1)%ringSize]; u != nil; u = u.evNext {
		if u.state != stIssued || u.doneAt != c.cycle+1 || u.seq < oldest {
			fail("seq %d (state %d, done at %d) completes at cycle %d", u.seq, u.state, u.doneAt, c.cycle+1)
		}
	}
	// A recycled µop is committed — stDone and older than the ROB head — or
	// was never used, so by the membership rules above it is on neither
	// kind of list.
	for _, u := range c.freeUops {
		if u.seq != 0 && (u.state != stDone || u.seq >= oldest) {
			fail("free list holds live seq %d (state %d)", u.seq, u.state)
		}
	}
}
