package boom

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/rv64"
	"repro/internal/sim"
)

// Pipeline latencies (cycles), mirroring SonicBOOM's functional units at
// 500 MHz. Loads see latLoadHit from issue to usable data on an L1 hit; L2
// and DRAM latencies are additive.
const (
	latALU     = 1
	latMul     = 3
	latDiv     = 16 // unpipelined iterative divider
	latFPALU   = 4
	latFPMul   = 4
	latFPDiv   = 15 // unpipelined
	latStore   = 1
	latLoadHit = 4
	latForward = 2 // store-to-load forward

	redirectPenalty = 9 // execute-resolved mispredict to first refetched instruction (BOOM ~12-16 total incl. resolve)
	btbBubble       = 2 // decode-resolved target (taken branch without BTB entry)

	ringSize = 512 // event ring; must exceed the longest latency
)

type uopState uint8

const (
	stWaiting uopState = iota
	stIssued
	stDone
)

type uop struct {
	seq     uint64
	pc      uint64
	nextPC  uint64
	memAddr uint64
	doneAt  uint64

	uopStatic // cracked form, copied from the per-PC decode cache

	// Wakeup-driven readiness (DESIGN §7). Bit d of pend is set at rename
	// while source slot d's producer is in flight and not stDone; only that
	// producer's completion clears it. wake[d] heads the list of consumers
	// whose slot d waits on this µop, threaded through their wakeNext[d].
	wake     [3]*uop
	wakeNext [3]*uop
	evNext   *uop // next µop completing in the same event-ring slot
	pend     uint8

	state     uopState
	taken     bool
	mispred   bool
	addrKnown bool // stores: STA has issued

	// pipeline-trace timestamps (filled only when tracing is on)
	fetchedAt, dispatchedAt, issuedAt uint64
}

// Source-slot pend bits the store halves wait on: STA needs the address
// operand (slot 0), STD the data operand (slot 1).
const (
	pendAddr = 1 << 0
	pendData = 1 << 1
)

// Core is one timing-model instance. Create with New, drive with Run.
type Core struct {
	cfg     Config
	stats   *Stats
	metrics *metrics.Registry     // optional; nil disables instrumentation
	inj     *faultinject.Injector // optional; nil disables the boom.tick site
	injSite []string              // "boom.tick" + scope segments

	bp     *bpred
	icache *cacheModel
	dcache *cacheModel
	l2     *cacheModel

	dec []decEntry // per-PC decode/crack cache

	fetchBuf uopRing
	rob      uopRing // FIFO, oldest first
	intQ     []*uop
	memQ     []*uop
	fpQ      []*uop
	stq      uopRing // stores in program order, pruned at commit
	stdWait  []*uop  // stores whose address issued but data is pending (STD)

	accHist []uint64 // accHist[k] = cycles with int-queue occupancy k (clamped)

	freeUops []*uop
	arena    []uop

	checkInv bool

	traceW    io.Writer
	traceLeft uint64

	pipeState
}

// pipeState is every piece of simulation state that is not a table or a
// buffer: Reset returns it to a new core's with one assignment.
type pipeState struct {
	cycle   uint64
	seq     uint64
	retired uint64

	next func(*sim.Retired) bool
	trc  sim.Retired // reusable trace record (keeps pullTrace allocation-free)
	peek *uop        // one-uop fetch lookahead
	eof  bool

	// Wrong-path pressure: while a mispredicted branch is unresolved the
	// real front end keeps dispatching wrong-path uops into the issue
	// queues. The trace has no wrong path, so the model accounts the
	// occupancy/activity (not timing) of those phantom entries here.
	// wpInt/wpMem/wpFp are the per-cycle additions before the room clamp,
	// fixed when the mispredicted branch dispatches: nothing younger
	// dispatches until it resolves, so the class mix cannot move.
	wrongInt, wrongMem, wrongFp int
	wpInt, wpMem, wpFp          int

	// Rename map: the youngest in-flight writer of each register that has
	// not completed; nil once it has (the value is in the register file).
	lastInt [32]*uop
	lastFp  [32]*uop

	intInFlight, fpInFlight int
	ldqUsed                 int

	// Event ring: slot t%ringSize holds, in issue order, the µops whose
	// result arrives at cycle t (an intrusive list through uop.evNext) and
	// the MSHRs released then. Config.Validate keeps every latency below
	// ringSize, so a queued event is always within ringSize of cycle.
	evHead, evTail [ringSize]*uop
	mshrredeem     [ringSize]int
	mshrsBusy      int

	fetchReadyAt  uint64
	redirect      *uop
	redirectDisp  bool // the mispredicted branch has dispatched (wrong path may fill queues)
	divBusyUntil  uint64
	fdivBusyUntil uint64

	// dispatched-uop class mix, used to shape wrong-path pressure
	dispInt, dispMem, dispFp uint64

	// Quiet-cycle skipping (DESIGN §7): active is set by every site of a
	// step that changes pipeline state; quietCAM is the store-queue search
	// charge an MSHR-blocked load repeats on each cycle it replays.
	active   bool
	quietCAM uint64
	skipped  uint64 // cycles advanced by skipQuiet rather than step

	// Per-cycle activity accumulators, flushed into stats at interval
	// boundaries (Stats/ResetStats/end of Run) instead of per cycle.
	accCycles uint64
	accOcc    [NumComponents]uint64
}

// New builds a core for cfg. Invalid configurations are returned as errors
// — the detailed model never aborts the process over its inputs.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("boom: invalid config %q: %w", cfg.Name, err)
	}
	c := &Core{cfg: cfg}
	c.stats = NewStats(&cfg)
	c.bp = newBPred(&c.cfg, c.stats)
	c.icache = newCacheModel(cfg.ICacheKiB, cfg.ICacheWays, cfg.LineBytes)
	c.dcache = newCacheModel(cfg.DCacheKiB, cfg.DCacheWays, cfg.LineBytes)
	c.l2 = newCacheModel(cfg.L2KiB, cfg.L2Ways, cfg.LineBytes)

	c.dec = make([]decEntry, decEntries)
	c.fetchBuf = newUopRing(cfg.FetchBufferEntries)
	c.rob = newUopRing(cfg.RobEntries)
	c.stq = newUopRing(cfg.StqEntries)
	c.intQ = make([]*uop, 0, cfg.IntIssueSlots)
	c.memQ = make([]*uop, 0, cfg.MemIssueSlots)
	c.fpQ = make([]*uop, 0, cfg.FpIssueSlots)
	c.stdWait = make([]*uop, 0, cfg.StqEntries)
	c.accHist = make([]uint64, cfg.IntIssueSlots+1)

	// µop arena: the in-flight population is bounded by ROB + fetch buffer
	// + the one-entry peek slot, so every µop the model will ever hold live
	// is preallocated here and recycled through freeUops.
	c.arena = make([]uop, cfg.RobEntries+cfg.FetchBufferEntries+2)
	c.freeUops = make([]*uop, 0, len(c.arena))
	for i := range c.arena {
		c.freeUops = append(c.freeUops, &c.arena[i])
	}
	return c, nil
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Reset returns the core to the state New built — cold predictors and
// caches, empty pipeline, cycle 0, fresh counters — without reallocating
// its tables, so one core can measure simulation point after simulation
// point. What a caller attached (metrics, fault injector, pipe trace,
// invariant checking) stays attached. The decode cache is kept: it
// revalidates every hit against the full instruction, so its contents
// never reach a simulated byte.
func (c *Core) Reset() {
	c.pipeState = pipeState{}
	c.stats = NewStats(&c.cfg)
	c.bp.reset(c.stats)
	c.icache.reset()
	c.dcache.reset()
	c.l2.reset()
	c.fetchBuf.reset()
	c.rob.reset()
	c.stq.reset()
	c.intQ, c.memQ, c.fpQ, c.stdWait = c.intQ[:0], c.memQ[:0], c.fpQ[:0], c.stdWait[:0]
	clear(c.accHist)
	clear(c.arena)
	c.freeUops = c.freeUops[:0]
	for i := range c.arena {
		c.freeUops = append(c.freeUops, &c.arena[i])
	}
}

// Stats returns the accumulated statistics (flushing any batched per-cycle
// accumulators first, so the counters are always current at the call).
func (c *Core) Stats() *Stats {
	c.flushAcc()
	return c.stats
}

// ResetStats zeroes the counters while keeping all microarchitectural state
// (predictors, caches, queues) — this is the warm-up boundary of the
// SimPoint methodology. Batched accumulators from the warm-up are discarded
// with the rest of the counters.
func (c *Core) ResetStats() {
	c.stats = NewStats(&c.cfg)
	c.bp.stats = c.stats
	c.accCycles = 0
	c.accOcc = [NumComponents]uint64{}
	for i := range c.accHist {
		c.accHist[i] = 0
	}
}

// flushAcc folds the batched per-cycle accumulators into stats. The
// int-issue occupancy histogram flushes as a suffix sum: slot i was
// occupied on every cycle whose occupancy exceeded i, so
// IntIssueSlotCycles[i] gains the count of cycles with occupancy > i —
// bit-identical to the per-cycle slot loop it replaces.
func (c *Core) flushAcc() {
	s := c.stats
	s.Cycles += c.accCycles
	c.accCycles = 0
	for i, v := range c.accOcc {
		if v != 0 {
			s.Comp[i].Occupancy += v
			c.accOcc[i] = 0
		}
	}
	var suffix uint64
	for k := len(c.accHist) - 1; k >= 1; k-- {
		suffix += c.accHist[k]
		c.accHist[k] = 0
		if suffix != 0 {
			s.IntIssueSlotCycles[k-1] += suffix
		}
	}
}

// SetMetrics attaches an optional metrics registry: every Run records
// retired instructions, cycles, wall time, and detailed-model throughput
// (KIPS). A nil registry (the default) disables instrumentation.
func (c *Core) SetMetrics(reg *metrics.Registry) { c.metrics = reg }

// injCheckMask throttles the fault-injection site inside Run to one check
// every 8192 cycles — off the per-cycle hot path, frequent enough to land
// inside any measured interval.
const injCheckMask = 1<<13 - 1

// deadlockCycles is the progress watchdog: Run reports a DeadlockError once
// this many cycles pass without a commit.
const deadlockCycles = 100_000

// SetFaultInjector attaches an optional fault injector; scope segments
// (typically workload and config name) are appended to the "boom.tick"
// site so chaos specs can target one measurement deterministically. A nil
// injector (the default) disables the site.
func (c *Core) SetFaultInjector(inj *faultinject.Injector, scope ...string) {
	c.inj = inj
	c.injSite = append([]string{"boom.tick"}, scope...)
}

// Run feeds committed instructions from next through the pipeline until
// maxRetire further instructions have committed (or the trace ends). It
// returns the number retired by this call.
//
// A stuck pipeline — no commit for >100k cycles — is a model bug, not a
// workload property. It is returned as a *DeadlockError (errors.Is
// ErrDeadlock) with the pipeline state at detection time, so a supervised
// sweep can isolate the faulty (workload, config) task instead of losing
// the whole campaign.
func (c *Core) Run(next func(*sim.Retired) bool, maxRetire uint64) (uint64, error) {
	if c.metrics != nil {
		t0, cyc0, ret0 := time.Now(), c.cycle, c.retired
		defer func() {
			c.recordRun(time.Since(t0), c.cycle-cyc0, c.retired-ret0)
		}()
	}
	defer c.flushAcc()
	c.next = next
	c.eof = false
	c.active = true // the first step of a call is never skipped over
	start := c.retired
	target := start + maxRetire
	lastRetired, lastProgress := c.retired, c.cycle
	for c.retired < target {
		if c.eof && c.peek == nil && c.rob.len() == 0 && c.fetchBuf.len() == 0 {
			break
		}
		if !c.active && !c.checkInv {
			c.skipQuiet(lastProgress + deadlockCycles)
		}
		if c.inj != nil && c.cycle&injCheckMask == 0 {
			if err := c.inj.Hit(c.injSite...); err != nil {
				return c.retired - start, err
			}
		}
		c.step()
		if c.retired != lastRetired {
			lastRetired, lastProgress = c.retired, c.cycle
		} else if c.cycle-lastProgress > deadlockCycles {
			return c.retired - start, &DeadlockError{
				Cycle: c.cycle, Retired: c.retired,
				ROB: c.rob.len(), FetchBuf: c.fetchBuf.len(),
				IntQ: len(c.intQ), MemQ: len(c.memQ), FpQ: len(c.fpQ),
				STQ: c.stq.len(), MSHRs: c.mshrsBusy,
			}
		}
	}
	return c.retired - start, nil
}

// recordRun publishes one Run call's throughput into the registry.
func (c *Core) recordRun(wall time.Duration, cycles, retired uint64) {
	c.metrics.Counter("boom.retired").Add(int64(retired))
	c.metrics.Counter("boom.cycles").Add(int64(cycles))
	c.metrics.Counter("boom.wall_ns").Add(wall.Nanoseconds())
	if s := wall.Seconds(); s > 0 && retired > 0 {
		c.metrics.Histogram("boom.kips").Observe(int64(float64(retired) / s / 1000))
	}
}

func (c *Core) allocUop() *uop {
	if n := len(c.freeUops); n > 0 {
		u := c.freeUops[n-1]
		c.freeUops = c.freeUops[:n-1]
		*u = uop{}
		return u
	}
	return new(uop)
}

// pullTrace refills the peek slot from the trace. The static part of the
// µop comes from the per-PC decode cache; only the dynamic fields are
// filled per instance. Dependencies are resolved against the rename state
// at dispatch.
func (c *Core) pullTrace() *uop {
	if c.peek != nil {
		return c.peek
	}
	if c.eof {
		return nil
	}
	r := &c.trc
	if !c.next(r) {
		c.eof = true
		return nil
	}
	u := c.allocUop()
	c.seq++
	u.seq = c.seq
	u.pc = r.PC
	u.nextPC = r.NextPC
	u.memAddr = r.MemAddr
	u.taken = r.Taken
	u.uopStatic = *c.lookupDecode(r.PC, r.Inst)
	c.peek = u
	return u
}

func (c *Core) step() {
	c.active, c.quietCAM = false, 0
	c.processCompletions()
	c.commit()
	c.issueAll()
	c.dispatch()
	c.fetch()
	c.accountOccupancy(1)
	if c.checkInv {
		c.assertInvariants()
	}
	c.cycle++
}

// skipQuiet runs after a step that changed nothing (active stayed false).
// Such a step repeats identically until a timed condition flips, so the
// clock jumps to the earliest cycle >= now at which one can: a queued
// completion or MSHR release, the front end's fetchReadyAt (a pending
// redirect ends on a completion instead), a divider coming free, the fault
// injector's next check, or horizon, the watchdog's last cycle. Each
// skipped cycle is charged exactly what the quiet step charged: occupancy,
// the replaying loads' store-queue searches and, under a pending redirect,
// the wrong-path front end. CheckInvariants(true) never skips, which makes
// it the per-cycle reference TestQuietSkipMatchesStepping compares with.
func (c *Core) skipQuiet(horizon uint64) {
	now := c.cycle
	wake := sooner(horizon, c.divBusyUntil, now)
	wake = sooner(wake, c.fdivBusyUntil, now)
	if c.redirect == nil {
		wake = sooner(wake, c.fetchReadyAt, now)
	}
	if c.inj != nil {
		wake = sooner(wake, (now+injCheckMask)&^injCheckMask, now)
	}
	for t := now; t < wake && t < now+ringSize; t++ {
		if s := t % ringSize; c.evHead[s] != nil || c.mshrredeem[s] != 0 {
			wake = t
			break
		}
	}
	n := wake - now
	if n == 0 {
		return
	}
	c.skipped += n
	c.stats.Comp[CompLSU].CAMSearches += n * c.quietCAM
	if c.redirect == nil {
		c.accountOccupancy(n)
		c.cycle = wake
		return
	}
	for ; c.cycle < wake; c.cycle++ {
		c.wrongPath()
		c.accountOccupancy(1)
	}
}

// sooner returns t if it is a wake-up in [now, wake), else wake: a timer
// that has already expired is not what the pipeline is waiting for.
func sooner(wake, t, now uint64) uint64 {
	if t >= now && t < wake {
		return t
	}
	return wake
}

// processCompletions handles every uop whose result becomes available this
// cycle: register-file writeback and issue-queue wakeup broadcast.
func (c *Core) processCompletions() {
	slot := c.cycle % ringSize
	if n := c.mshrredeem[slot]; n > 0 {
		c.mshrsBusy -= n
		c.mshrredeem[slot] = 0
		c.active = true
	}
	u := c.evHead[slot]
	if u == nil {
		return
	}
	c.evHead[slot], c.evTail[slot] = nil, nil
	c.active = true
	for ; u != nil; u = u.evNext {
		u.state = stDone
		for d := range u.wake {
			for v := u.wake[d]; v != nil; v = v.wakeNext[d] {
				v.pend &^= 1 << d
			}
			u.wake[d] = nil
		}
		if u.dstInt {
			c.stats.Comp[CompIntRF].Writes++
			if c.lastInt[u.rd] == u {
				c.lastInt[u.rd] = nil
			}
		}
		if u.dstFp {
			c.stats.Comp[CompFpRF].Writes++
			if c.lastFp[u.rd] == u {
				c.lastFp[u.rd] = nil
			}
		}
		if u.dstInt || u.dstFp {
			// Wakeup: every valid issue-queue entry compares its source
			// tags against the broadcast tag (CAM activity scales with
			// occupancy — the effect behind Key Takeaway #4).
			c.stats.Comp[CompIntIssue].CAMSearches += uint64(len(c.intQ))
			c.stats.Comp[CompMemIssue].CAMSearches += uint64(len(c.memQ))
			c.stats.Comp[CompFpIssue].CAMSearches += uint64(len(c.fpQ))
		}
		if u.mispred && c.redirect == u {
			// Branch resolved in execute: schedule the front-end redirect
			// and flush the wrong-path entries from the issue queues.
			c.redirect = nil
			c.fetchReadyAt = c.cycle + redirectPenalty
			c.wrongInt, c.wrongMem, c.wrongFp = 0, 0, 0
		}
	}
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	n := 0
	for n < c.cfg.RetireWidth && c.rob.len() > 0 {
		u := c.rob.front()
		if u.state != stDone {
			break
		}
		c.rob.popFront()
		c.stats.Comp[CompRob].Reads++
		if u.isStore {
			// Store data leaves the store queue and is written to the L1D.
			c.stats.Comp[CompDCache].Writes++
			c.stats.Comp[CompLSU].Reads++
			if !c.dcache.probe(u.memAddr) {
				// Write miss: allocate through L2 (no pipeline stall; the
				// store buffer hides it, but the energy is real).
				c.dcache.access(u.memAddr)
				c.l2.access(u.memAddr)
			}
			// Prune from the store queue (it is always the oldest).
			if c.stq.len() > 0 && c.stq.front() == u {
				c.stq.popFront()
			}
		}
		if u.isLoad {
			c.ldqUsed--
			c.stats.Comp[CompLSU].Reads++
		}
		if u.dstInt {
			c.intInFlight--
		}
		if u.dstFp {
			c.fpInFlight--
		}
		c.retired++
		c.stats.Insts++
		c.traceRetire(u)
		c.freeUops = append(c.freeUops, u)
		n++
	}
	if n > 0 {
		c.active = true
	}
}

func (c *Core) schedule(u *uop, doneAt uint64) {
	if u.state == stWaiting {
		c.traceIssue(u)
	}
	u.state = stIssued
	u.doneAt = doneAt
	slot := doneAt % ringSize
	if t := c.evTail[slot]; t != nil {
		t.evNext = u
	} else {
		c.evHead[slot] = u
	}
	c.evTail[slot] = u
	c.active = true
}

// issueAll runs the three distributed scheduler queues. The integer and
// memory queues share the integer register file read ports; the FP queue
// (plus FP store data) uses the FP ports.
func (c *Core) issueAll() {
	intReads := c.cfg.IntRFReadPorts
	fpReads := c.cfg.FpRFReadPorts
	c.issueInt(&intReads)
	c.issueMem(&intReads, &fpReads)
	c.issueFp(&fpReads)
}

func (c *Core) issueInt(intReads *int) {
	issued := 0
	for i := 0; i < len(c.intQ) && issued < c.cfg.IntIssueWidth; {
		u := c.intQ[i]
		if u.pend != 0 {
			i++
			continue
		}
		reads := u.nIntSrcs()
		if reads > *intReads {
			i++
			continue
		}
		var lat uint64
		switch u.class {
		case rv64.ClassMul:
			lat = latMul
		case rv64.ClassDiv:
			if c.cycle < c.divBusyUntil {
				i++
				continue
			}
			lat = latDiv
			c.divBusyUntil = c.cycle + latDiv
		default:
			lat = latALU
		}
		*intReads -= reads
		c.stats.Comp[CompIntRF].Reads += uint64(reads)
		c.removeFromQueue(&c.intQ, i, CompIntIssue)
		c.schedule(u, c.cycle+lat)
		c.countExec(u)
		issued++
	}
}

func (c *Core) issueMem(intReads, fpReads *int) {
	// Store-data (STD) completion: stores whose address generation already
	// issued finish as soon as their data operand arrives.
	for i := 0; i < len(c.stdWait); {
		u := c.stdWait[i]
		if u.pend&pendData != 0 {
			i++
			continue
		}
		if u.fpData {
			if *fpReads < 1 {
				i++
				continue
			}
			*fpReads--
			c.stats.Comp[CompFpRF].Reads++
		} else {
			if *intReads < 1 {
				i++
				continue
			}
			*intReads--
			c.stats.Comp[CompIntRF].Reads++
		}
		c.stdWait[i] = c.stdWait[len(c.stdWait)-1]
		c.stdWait = c.stdWait[:len(c.stdWait)-1]
		c.schedule(u, c.cycle+latStore)
	}

	issued := 0
	for i := 0; i < len(c.memQ) && issued < c.cfg.MemIssueWidth; {
		u := c.memQ[i]
		if *intReads < 1 { // AGU always reads the base register
			break
		}
		if u.isStore {
			// STA issues as soon as the address operand is ready, BOOM's
			// STA/STD split: younger loads then disambiguate against it.
			if u.pend&pendAddr != 0 {
				i++
				continue
			}
			*intReads--
			c.stats.Comp[CompIntRF].Reads++
			u.addrKnown = true
			// Store issue searches the load queue for ordering violations.
			c.stats.Comp[CompLSU].CAMSearches += uint64(c.ldqUsed)
			c.removeFromQueue(&c.memQ, i, CompMemIssue)
			c.countExec(u)
			if u.pend&pendData == 0 {
				// Data already available: STD fires with the STA.
				if u.fpData {
					c.stats.Comp[CompFpRF].Reads++
				} else {
					c.stats.Comp[CompIntRF].Reads++
				}
				c.schedule(u, c.cycle+latStore)
			} else {
				c.stdWait = append(c.stdWait, u)
			}
			issued++
			continue
		}

		if u.pend != 0 {
			i++
			continue
		}
		// Load: older stores must have known addresses, then forward or
		// access the L1D.
		blocked := false
		var forwarder *uop
		for j, nstq := 0, c.stq.len(); j < nstq; j++ {
			s := c.stq.at(j)
			if s.seq >= u.seq {
				break
			}
			if !s.addrKnown {
				blocked = true
				break
			}
			if rangesOverlap(s.memAddr, uint64(s.memSize), u.memAddr, uint64(u.memSize)) {
				forwarder = s // youngest older matching store wins
			}
		}
		if blocked {
			i++
			continue
		}
		if forwarder != nil && forwarder.state != stDone {
			// Matching older store whose data hasn't arrived: wait.
			i++
			continue
		}
		// Load issue searches the store queue (CAM) for forwarding.
		c.stats.Comp[CompLSU].CAMSearches += uint64(c.stq.len())
		if forwarder != nil {
			*intReads--
			c.stats.Comp[CompIntRF].Reads++
			c.stats.StoreForward++
			c.removeFromQueue(&c.memQ, i, CompMemIssue)
			c.schedule(u, c.cycle+latForward)
			c.countExec(u)
			issued++
			continue
		}
		// L1D access; misses need an MSHR.
		hit := c.dcache.probe(u.memAddr)
		if !hit && c.mshrsBusy >= c.cfg.DCacheMSHRs {
			// Replay next cycle. The search charged above repeats on every
			// cycle the load stays blocked, which skipQuiet must reproduce.
			c.quietCAM += uint64(c.stq.len())
			i++
			continue
		}
		*intReads--
		c.stats.Comp[CompIntRF].Reads++
		c.stats.Comp[CompDCache].Reads++
		var lat uint64
		if hit {
			c.dcache.access(u.memAddr) // update LRU
			c.stats.DCacheHits++
			lat = latLoadHit
		} else {
			c.dcache.access(u.memAddr) // allocate
			c.stats.DCacheMisses++
			c.mshrsBusy++
			extra := uint64(c.cfg.L2Latency)
			if c.l2.access(u.memAddr) {
				c.stats.L2Hits++
			} else {
				c.stats.L2Misses++
				extra += uint64(c.cfg.MemLatency)
			}
			lat = latLoadHit + extra
			c.mshrredeem[(c.cycle+lat)%ringSize]++
			c.stats.Comp[CompDCache].Writes++ // line fill
		}
		c.removeFromQueue(&c.memQ, i, CompMemIssue)
		c.schedule(u, c.cycle+lat)
		c.countExec(u)
		issued++
	}
}

func (c *Core) issueFp(fpReads *int) {
	issued := 0
	for i := 0; i < len(c.fpQ) && issued < c.cfg.FpIssueWidth; {
		u := c.fpQ[i]
		if u.pend != 0 {
			i++
			continue
		}
		reads := u.nFpSrcs()
		intReads := u.nIntSrcs() // fcvt/fmv from the int file
		if reads > *fpReads {
			i++
			continue
		}
		var lat uint64
		switch u.class {
		case rv64.ClassFPMul:
			lat = latFPMul
		case rv64.ClassFPDiv:
			if c.cycle < c.fdivBusyUntil {
				i++
				continue
			}
			lat = latFPDiv
			c.fdivBusyUntil = c.cycle + latFPDiv
		default:
			lat = latFPALU
		}
		*fpReads -= reads
		c.stats.Comp[CompFpRF].Reads += uint64(reads)
		c.stats.Comp[CompIntRF].Reads += uint64(intReads)
		c.removeFromQueue(&c.fpQ, i, CompFpIssue)
		c.schedule(u, c.cycle+lat)
		c.countExec(u)
		issued++
	}
}

// removeFromQueue removes index i from a collapsing queue, charging the
// entry shifts that compaction performs in hardware (Key Takeaway #5).
func (c *Core) removeFromQueue(q *[]*uop, i int, comp Component) {
	s := *q
	c.stats.Comp[comp].Reads++ // entry read-out on grant
	c.stats.Comp[comp].Shifts += uint64(len(s) - i - 1)
	copy(s[i:], s[i+1:])
	*q = s[:len(s)-1]
	c.active = true
}

func (c *Core) countExec(u *uop) {
	c.stats.ExecOps[u.class]++
}

// dispatch renames and dispatches up to DecodeWidth instructions from the
// fetch buffer into the ROB and the issue queues.
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DecodeWidth && c.fetchBuf.len() > 0; n++ {
		u := c.fetchBuf.front()
		if c.rob.len() >= c.cfg.RobEntries {
			return
		}
		// Queue selection, remaining capacity (wrong-path entries occupy
		// slots until the flush), and the activity component are all keyed
		// by the µop's precomputed queue selector.
		var q *[]*uop
		var cap_ int
		var comp Component
		switch u.qSel {
		case qMem:
			q, cap_, comp = &c.memQ, c.cfg.MemIssueSlots-c.wrongMem, CompMemIssue
		case qFp:
			q, cap_, comp = &c.fpQ, c.cfg.FpIssueSlots-c.wrongFp, CompFpIssue
		default:
			q, cap_, comp = &c.intQ, c.cfg.IntIssueSlots-c.wrongInt, CompIntIssue
		}
		if len(*q) >= cap_ {
			return
		}
		if u.dstInt && c.intInFlight >= c.cfg.IntPhysRegs-32 {
			return
		}
		if u.dstFp && c.fpInFlight >= c.cfg.FpPhysRegs-32 {
			return
		}
		if u.isLoad && c.ldqUsed >= c.cfg.LdqEntries {
			return
		}
		if u.isStore && c.stq.len() >= c.cfg.StqEntries {
			return
		}

		c.fetchBuf.popFront()
		c.active = true
		c.stats.Comp[CompFetchBuffer].Reads++
		c.traceDispatch(u)

		// Rename: map-table reads for sources, a write for the destination,
		// and — on any branch that can mispredict — a snapshot copy of both
		// free lists (BOOM's allocation lists; Key Takeaway #3).
		c.renameSources(u)
		renameComp := CompIntRename
		if u.fpRename {
			renameComp = CompFpRename
		}
		c.stats.Comp[renameComp].Reads += uint64(u.nSrcs())
		if u.dstInt || u.dstFp {
			c.stats.Comp[renameComp].Writes++
		}
		if u.class == rv64.ClassBranch || u.class == rv64.ClassJALR || u.class == rv64.ClassJAL {
			c.stats.Comp[CompIntRename].Shifts += uint64(c.cfg.IntPhysRegs)
			c.stats.Comp[CompFpRename].Shifts += uint64(c.cfg.FpPhysRegs)
		}

		if u.dstInt {
			c.intInFlight++
			c.lastInt[u.rd] = u
		}
		if u.dstFp {
			c.fpInFlight++
			c.lastFp[u.rd] = u
		}
		if u.isLoad {
			c.ldqUsed++
			c.stats.Loads++
			c.stats.Comp[CompLSU].Writes++
		}
		if u.isStore {
			c.stq.pushBack(u)
			c.stats.Stores++
			c.stats.Comp[CompLSU].Writes++
		}

		c.rob.pushBack(u)
		c.stats.Comp[CompRob].Writes++
		*q = append(*q, u)
		switch comp {
		case CompMemIssue:
			c.dispMem++
		case CompFpIssue:
			c.dispFp++
		default:
			c.dispInt++
		}
		c.stats.Comp[comp].Writes++
		c.stats.Comp[CompOther].Reads++ // decode logic
		if u == c.redirect {
			// The mispredicted branch ends its fetch group, so it is the
			// last µop to dispatch until it resolves: the wrong-path mix is
			// the class mix as of now.
			c.redirectDisp = true
			total := c.dispInt + c.dispMem + c.dispFp
			budget := uint64(c.cfg.DecodeWidth)
			c.wpInt = int((budget*c.dispInt + total - 1) / total)
			c.wpMem = int(budget * c.dispMem / total)
			c.wpFp = int(budget * c.dispFp / total)
		}
	}
}

// renameSources walks the source-slot table precomputed at crack time: a
// slot whose producer has not completed becomes a pend bit and an entry on
// that producer's wake list.
func (c *Core) renameSources(u *uop) {
	for d := 0; d < 3; d++ {
		var p *uop
		switch u.srcKind[d] {
		case srcInt:
			p = c.lastInt[u.srcReg[d]]
		case srcFp:
			p = c.lastFp[u.srcReg[d]]
		}
		if p != nil {
			u.pend |= 1 << d
			u.wakeNext[d] = p.wake[d]
			p.wake[d] = u
		}
	}
}

// fetch models the front end for one cycle.
func (c *Core) fetch() {
	if c.redirect != nil {
		c.wrongPath()
		return
	}
	if c.cycle < c.fetchReadyAt {
		return
	}
	if c.fetchBuf.len() >= c.cfg.FetchBufferEntries {
		return
	}
	first := c.pullTrace()
	if first == nil {
		return
	}
	c.active = true

	// One I-cache read and one predictor lookup per fetch cycle.
	c.stats.Comp[CompICache].Reads++
	c.bp.lookupCycle()
	if c.icache.access(first.pc) {
		c.stats.ICacheHits++
	} else {
		c.stats.ICacheMisses++
		c.stats.Comp[CompICache].Writes++ // fill
		extra := uint64(c.cfg.L2Latency)
		if c.l2.access(first.pc) {
			c.stats.L2Hits++
		} else {
			c.stats.L2Misses++
			extra += uint64(c.cfg.MemLatency)
		}
		c.fetchReadyAt = c.cycle + extra
		return // retry when the line arrives
	}

	line := first.pc >> 6
	for n := 0; n < c.cfg.FetchWidth && c.fetchBuf.len() < c.cfg.FetchBufferEntries; n++ {
		u := c.pullTrace()
		if u == nil {
			return
		}
		if u.pc>>6 != line {
			return // next fetch group starts at the new line
		}
		c.peek = nil
		c.traceFetch(u)
		c.fetchBuf.pushBack(u)
		c.stats.Comp[CompFetchBuffer].Writes++

		stop := c.predict(u)
		if stop {
			return
		}
	}
}

// wrongPath is the front end's cycle while a mispredicted branch waits to
// resolve: it keeps running down the wrong path — predictor and I-cache
// stay busy and wrong-path uops keep dispatching into the issue queues
// until the flush. The phantom entries mirror the workload's class mix.
// It is not pipeline activity: skipQuiet repeats it per skipped cycle.
func (c *Core) wrongPath() {
	c.bp.lookupCycle()
	c.stats.Comp[CompICache].Reads++
	if !c.redirectDisp {
		// The branch is still in the fetch buffer: nothing younger can
		// dispatch yet, so the queues see no wrong-path pressure.
		return
	}
	addInt, addMem, addFp := c.wpInt, c.wpMem, c.wpFp
	if room := c.cfg.IntIssueSlots - len(c.intQ) - c.wrongInt; addInt > room {
		addInt = room
	}
	if room := c.cfg.MemIssueSlots - len(c.memQ) - c.wrongMem; addMem > room {
		addMem = room
	}
	if room := c.cfg.FpIssueSlots - len(c.fpQ) - c.wrongFp; addFp > room {
		addFp = room
	}
	if addInt > 0 {
		c.wrongInt += addInt
		c.stats.Comp[CompIntIssue].Writes += uint64(addInt)
	}
	if addMem > 0 {
		c.wrongMem += addMem
		c.stats.Comp[CompMemIssue].Writes += uint64(addMem)
	}
	if addFp > 0 {
		c.wrongFp += addFp
		c.stats.Comp[CompFpIssue].Writes += uint64(addFp)
	}
}

// predict runs the front-end prediction machinery for one fetched uop and
// reports whether the fetch group must end (taken control flow or pending
// redirect).
func (c *Core) predict(u *uop) bool {
	switch u.class {
	case rv64.ClassBranch:
		c.stats.Branches++
		predTaken := c.bp.predictCond(u.pc)
		c.bp.updateCond(u.pc, u.taken)
		if predTaken != u.taken {
			u.mispred = true
			c.redirect, c.redirectDisp = u, false
			c.stats.Mispredicts++
			if u.taken {
				c.bp.btbUpdate(u.pc, u.nextPC)
			}
			return true
		}
		if !u.taken {
			return false
		}
		// Correctly predicted taken: the target must come from the BTB.
		if tgt, hit := c.bp.btbLookup(u.pc); !hit || tgt != u.nextPC {
			c.stats.BTBMisses++
			c.bp.btbUpdate(u.pc, u.nextPC)
			c.fetchReadyAt = c.cycle + btbBubble
		}
		return true

	case rv64.ClassJAL:
		if u.call {
			c.bp.rasPush(u.pc + 4)
		}
		if tgt, hit := c.bp.btbLookup(u.pc); !hit || tgt != u.nextPC {
			c.stats.BTBMisses++
			c.bp.btbUpdate(u.pc, u.nextPC)
			c.fetchReadyAt = c.cycle + btbBubble
		}
		return true

	case rv64.ClassJALR:
		c.stats.Branches++
		var predicted uint64
		var havePred bool
		if u.ret {
			predicted, havePred = c.bp.rasPop()
		} else {
			predicted, havePred = c.bp.btbLookup(u.pc)
		}
		if u.call {
			c.bp.rasPush(u.pc + 4)
		}
		if !havePred || predicted != u.nextPC {
			u.mispred = true
			c.redirect, c.redirectDisp = u, false
			c.stats.Mispredicts++
			if !u.ret {
				c.bp.btbUpdate(u.pc, u.nextPC)
			}
		}
		return true
	}
	return false
}

// accountOccupancy records n cycles at the current occupancy of every
// tracked structure (n is 1 except when skipQuiet jumps) into the flat
// accumulators; flushAcc folds them into stats at interval boundaries. The
// int-queue slot profile is recorded as an occupancy histogram rather than
// a per-slot loop.
func (c *Core) accountOccupancy(n uint64) {
	c.accCycles += n
	c.accOcc[CompFetchBuffer] += n * uint64(c.fetchBuf.len())
	c.accOcc[CompRob] += n * uint64(c.rob.len())
	intOcc := len(c.intQ) + c.wrongInt
	c.accOcc[CompIntIssue] += n * uint64(intOcc)
	c.accOcc[CompMemIssue] += n * uint64(len(c.memQ)+c.wrongMem)
	c.accOcc[CompFpIssue] += n * uint64(len(c.fpQ)+c.wrongFp)
	c.accOcc[CompLSU] += n * uint64(c.ldqUsed+c.stq.len())
	c.accOcc[CompDCache] += n * uint64(c.mshrsBusy)
	if intOcc >= len(c.accHist) {
		intOcc = len(c.accHist) - 1
	}
	c.accHist[intOcc] += n
}

// nIntSrcs counts integer register file reads the uop performs (precomputed
// at crack time).
func (u *uop) nIntSrcs() int { return int(u.nIntSrc) }

// nFpSrcs counts FP register file reads (precomputed at crack time).
func (u *uop) nFpSrcs() int { return int(u.nFpSrc) }

func rangesOverlap(a uint64, an uint64, b uint64, bn uint64) bool {
	return a < b+bn && b < a+an
}
