package boom

import (
	"fmt"
	"io"
	"math"
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

	fetchLineShift = 6 // a fetch group never crosses a 64-byte line; the I-cache is read once per group
)

type uopState uint8

const (
	stWaiting uopState = iota
	stIssued
	stDone
)

// uop is one dynamic instruction in flight. It lives in the µop window at
// slot seq&mask from fetch to commit and holds no pointer: every link to
// another µop is a ref. Its sequence number is its place in the window
// (seqOf), and its next PC is read once, at fetch, from the trace record
// it was pulled from; neither is stored. 64 bytes: one cache line.
type uop struct {
	pc      uint64
	memAddr uint64
	doneAt  uint64

	uopStatic // cracked form, copied from the per-PC decode cache

	// Wakeup-driven readiness (DESIGN §7). Bit d of pend is set at rename
	// while source slot d's producer is in flight and not stDone; only that
	// producer's completion clears it. wake[d] heads the list of consumers
	// whose slot d waits on this µop, threaded through their wakeNext[d].
	wake     [3]ref
	wakeNext [3]ref
	evNext   ref // next µop completing in the same event-ring slot
	pend     uint8

	state     uopState
	taken     bool
	mispred   bool
	addrKnown bool // stores: STA has issued
}

// ref names a µop by its window slot plus one; 0 is no µop. A window of
// at most 1<<15 slots (Config.Validate) keeps every ref in 16 bits.
type ref uint16

// Source-slot pend bits the store halves wait on: STA needs the address
// operand (slot 0), STD the data operand (slot 1).
const (
	pendAddr = 1 << 0
	pendData = 1 << 1
)

// Core is one timing-model instance. Create with New, drive with
// RunSource (or Run), retarget with Reset.
type Core struct {
	cfg     Config
	stats   *Stats
	metrics *metrics.Registry     // optional; nil disables instrumentation
	inj     *faultinject.Injector // optional; nil disables the boom.tick site
	injSite []string              // "boom.tick" + scope segments

	bp     bpred
	icache cacheModel
	dcache cacheModel
	l2     cacheModel

	dec []decEntry // per-PC decode/crack cache

	// The µop window: every µop from fetch to commit, at slot seq&mask.
	// [head, mid) is the ROB, oldest first, [mid, tail) the fetch buffer,
	// and the one-µop fetch lookahead sits at tail while peeked. Its length
	// is the smallest power of two that holds a full ROB, a full fetch
	// buffer and the lookahead, so a live µop's slot is never reused.
	win  []uop
	mask uint64

	intQ    []ref
	memQ    []ref
	fpQ     []ref
	stq     seqRing // stores' sequence numbers in program order, pruned at commit
	stdWait []ref   // stores whose address issued but data is pending (STD)

	accHist []uint64 // accHist[k] = cycles with int-queue occupancy k (clamped)

	checkInv bool

	traceW    io.Writer
	traceLeft uint64
	stamps    []pipeStamp // per window slot; allocated by SetPipeTrace

	adapter funcSource // Run's one-record source

	pipeState
}

// pipeState is every piece of simulation state that is not a table or a
// buffer: Reset returns it to a new core's with one assignment.
type pipeState struct {
	cycle   uint64
	retired uint64

	head, mid, tail uint64 // window bounds, as sequence numbers
	peeked          bool   // the fetch lookahead at tail is filled

	// The trace: the source of this Run or Warm call and the last batch it
	// returned, read in place. recs[:pos] have been pulled (the lookahead,
	// while peeked, is recs[pos-1]); recs[pos:] are the core's until a
	// later call reads them or Reset drops them.
	src  Source
	recs []sim.Retired
	pos  int
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
	// not completed; 0 once it has (the value is in the register file).
	// Indexed by the cracked srcMap/dstMap: x0..x31, f0..f31, then the
	// never-written renameNone and the never-read renameSink.
	last [renameSlots]ref

	intInFlight, fpInFlight int
	ldqUsed                 int

	// Event ring: slot t%ringSize holds, in issue order, the µops whose
	// result arrives at cycle t (an intrusive list through uop.evNext) and
	// the MSHRs released then. Config.Validate keeps every latency below
	// ringSize, so a queued event is always within ringSize of cycle.
	evHead, evTail [ringSize]ref
	mshrredeem     [ringSize]int
	mshrsBusy      int

	fetchReadyAt  uint64
	redirect      ref
	redirectDisp  bool // the mispredicted branch has dispatched (wrong path may fill queues)
	divBusyUntil  uint64
	fdivBusyUntil uint64

	// dispatched-µop class mix per queue selector, used to shape
	// wrong-path pressure
	disp [sigQueues]uint64

	// Quiet-cycle skipping (DESIGN §7): active is set by every site of a
	// step that changes pipeline state; quietCAM is the store-queue search
	// charge an MSHR-blocked load repeats on each cycle it replays.
	active   bool
	quietCAM uint64
	skipped  uint64 // cycles advanced by skipQuiet rather than step

	// Per-cycle activity accumulators, flushed into stats at interval
	// boundaries (Stats/ResetStats/end of Run) instead of per cycle, and
	// the per-stage µop counts by activity signature (sig.go).
	accCycles uint64
	accOcc    [NumComponents]uint64
	sigN      [numSigStages][numSigs]uint64
}

// freshPipe is the pipeline state of a new core: empty, with the first
// µop fetched to be sequence number 1.
func freshPipe() pipeState {
	return pipeState{head: 1, mid: 1, tail: 1}
}

// New builds a core for cfg: Reset on a zero core. Invalid configurations
// are returned as errors — the detailed model never aborts the process
// over its inputs.
func New(cfg Config) (*Core, error) {
	c := new(Core)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset retargets the core at cfg and returns it to the state New builds
// — cold predictors and caches, empty pipeline, cycle 0, fresh counters —
// so one core can measure simulation point after simulation point, and
// cell after cell. Every table is resized in place: a backing array that
// holds the new size is reused and zeroed, a smaller one is replaced, so a
// core keeps the tables of the largest configuration it has run. What a
// caller attached (metrics, fault injector, pipe trace, invariant
// checking) stays attached. The decode cache is kept: it revalidates every
// hit against the full instruction, so its contents never reach a
// simulated byte. An invalid cfg is returned as an error and leaves the
// core as it was.
func (c *Core) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("boom: invalid config %q: %w", cfg.Name, err)
	}
	c.cfg = cfg
	c.stats = NewStats(&c.cfg)
	c.bp.reset(&c.cfg, c.stats)
	c.icache.reset(cfg.ICacheKiB, cfg.ICacheWays, cfg.LineBytes)
	c.dcache.reset(cfg.DCacheKiB, cfg.DCacheWays, cfg.LineBytes)
	c.l2.reset(cfg.L2KiB, cfg.L2Ways, cfg.LineBytes)
	if c.dec == nil {
		c.dec = make([]decEntry, decEntries)
	}
	n := pow2(cfg.RobEntries + cfg.FetchBufferEntries + 1)
	c.win, c.mask = sized(c.win, n), uint64(n-1)
	if c.traceW != nil {
		c.stamps = sized(c.stamps, n)
	}
	c.stq.reset(cfg.StqEntries)
	c.intQ = sized(c.intQ, cfg.IntIssueSlots)[:0]
	c.memQ = sized(c.memQ, cfg.MemIssueSlots)[:0]
	c.fpQ = sized(c.fpQ, cfg.FpIssueSlots)[:0]
	c.stdWait = sized(c.stdWait, cfg.StqEntries)[:0]
	c.accHist = sized(c.accHist, cfg.IntIssueSlots+1)
	c.pipeState = freshPipe()
	return nil
}

// pow2 is the smallest power of two >= n.
func pow2(n int) int {
	sz := 1
	for sz < n {
		sz <<= 1
	}
	return sz
}

// sized is s resliced to n zeroed elements: s's backing array when it
// holds n, a new one otherwise.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
	c.sigN = [numSigStages][numSigs]uint64{}
	clear(c.accHist)
}

// flushAcc folds the batched accumulators into stats: the per-stage
// signature counts (foldSigs) and the per-cycle occupancy. The int-issue
// occupancy histogram flushes as a suffix sum: slot i was occupied on
// every cycle whose occupancy exceeded i, so IntIssueSlotCycles[i] gains
// the count of cycles with occupancy > i — bit-identical to the per-cycle
// slot loop it replaces.
func (c *Core) flushAcc() {
	c.foldSigs()
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
// injector (the default) disables the site. A later call replaces both, so
// a core Reset for another cell is re-scoped to it.
func (c *Core) SetFaultInjector(inj *faultinject.Injector, scope ...string) {
	c.inj = inj
	c.injSite = append(append(c.injSite[:0], "boom.tick"), scope...)
}

// Source is a trace: the committed instructions of one program, in
// program order, a batch at a time. Batch returns the next records, or an
// empty slice at the end of the trace (a later call may find more). The
// core reads a batch in place and never writes it.
//
// Records a core has pulled stay the core's until Reset drops them: a Run
// or Warm call that stops inside a batch leaves the rest to the next call,
// whatever source that call names. So the memory a batch lives in must not
// change while a core holds it — for sim.CPU.Batch's buffer, nothing may
// call Batch, Fill, Step or RunTrace on that CPU until the core has read
// the batch to its end or been Reset.
type Source interface {
	Batch() []sim.Retired
}

// funcSource is Run's adapter: a Source whose every batch is the one
// record its callback wrote.
type funcSource struct {
	next func(*sim.Retired) bool
	rec  [1]sim.Retired
}

func (s *funcSource) Batch() []sim.Retired {
	if !s.next(&s.rec[0]) {
		return nil
	}
	return s.rec[:]
}

// Run is RunSource for a trace read one record at a time: next fills the
// record it is given and reports false at the end of the trace.
func (c *Core) Run(next func(*sim.Retired) bool, maxRetire uint64) (uint64, error) {
	c.adapter.next = next
	return c.RunSource(&c.adapter, maxRetire)
}

// RunSource feeds committed instructions from src through the pipeline
// until maxRetire further instructions have committed (or the trace ends).
// It returns the number retired by this call; math.MaxUint64 runs to the
// end of the trace however many instructions the core has already retired.
//
// A stuck pipeline — no commit for >100k cycles — is a model bug, not a
// workload property. It is returned as a *DeadlockError (errors.Is
// ErrDeadlock) with the pipeline state at detection time, so a supervised
// sweep can isolate the faulty (workload, config) task instead of losing
// the whole campaign.
func (c *Core) RunSource(src Source, maxRetire uint64) (uint64, error) {
	if c.metrics != nil {
		t0, cyc0, ret0, skip0 := time.Now(), c.cycle, c.retired, c.skipped
		defer func() {
			c.recordRun(time.Since(t0), c.cycle-cyc0, c.retired-ret0, c.skipped-skip0)
		}()
	}
	defer c.flushAcc()
	c.src = src
	c.eof = false
	c.active = true // the first step of a call is never skipped over
	start := c.retired
	target := start + maxRetire
	if target < start {
		target = math.MaxUint64 // saturate: the sum wrapped
	}
	lastRetired, lastProgress := c.retired, c.cycle
	for c.retired < target {
		if c.eof && !c.peeked && c.head == c.tail {
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
				ROB: int(c.mid - c.head), FetchBuf: int(c.tail - c.mid),
				IntQ: len(c.intQ), MemQ: len(c.memQ), FpQ: len(c.fpQ),
				STQ: c.stq.len(), MSHRs: c.mshrsBusy,
			}
		}
	}
	return c.retired - start, nil
}

// recordRun publishes one Run call's throughput into the registry:
// skipped is the part of cycles that skipQuiet advanced rather than step.
func (c *Core) recordRun(wall time.Duration, cycles, retired, skipped uint64) {
	c.metrics.Counter("boom.retired").Add(int64(retired))
	c.metrics.Counter("boom.cycles").Add(int64(cycles))
	c.metrics.Counter("boom.skipped_cycles").Add(int64(skipped))
	c.metrics.Counter("boom.wall_ns").Add(wall.Nanoseconds())
	if s := wall.Seconds(); s > 0 && retired > 0 {
		c.metrics.Histogram("boom.kips").Observe(int64(float64(retired) / s / 1000))
	}
}

// slot is the window slot of sequence number seq; ref names it.
func (c *Core) slot(seq uint64) *uop { return &c.win[seq&c.mask] }
func (c *Core) ref(seq uint64) ref   { return ref(seq&c.mask) + 1 }

// at is the µop r names, and seqOf its sequence number: the one live
// sequence number, counted from head, that maps to its slot.
func (c *Core) at(r ref) *uop      { return &c.win[r-1] }
func (c *Core) seqOf(r ref) uint64 { return c.head + (uint64(r-1)-c.head)&c.mask }

// record is the next record of the trace, read in place from the held
// batch or, once that is read, from the source's next one; nil at the end.
func (c *Core) record() *sim.Retired {
	if c.pos == len(c.recs) && !c.refill() {
		return nil
	}
	c.pos++
	return &c.recs[c.pos-1]
}

// refill replaces the held batch, read to its end, with the source's next
// one and reports whether that has a record.
func (c *Core) refill() bool {
	if c.eof {
		return false
	}
	c.recs, c.pos = c.src.Batch(), 0
	c.eof = len(c.recs) == 0
	return !c.eof
}

// pullTrace fills the fetch lookahead at tail from the trace and returns
// it with the record it was pulled from. The static part of the µop comes
// from the per-PC decode cache; the dynamic fields are written one by one
// (a composite literal would zero and copy the whole µop). Dependencies
// are resolved against the rename state at dispatch.
func (c *Core) pullTrace() (*uop, *sim.Retired) {
	u := c.slot(c.tail)
	if c.peeked {
		return u, &c.recs[c.pos-1]
	}
	r := c.record()
	if r == nil {
		return nil, nil
	}
	u.pc = r.PC
	u.memAddr = r.MemAddr
	u.uopStatic = *c.decode(r)
	u.wake = [3]ref{}
	u.pend = 0
	u.state = stWaiting
	u.taken = r.Taken
	u.mispred = false
	u.addrKnown = false
	c.peeked = true
	if c.traceW != nil {
		c.tracePull(r)
	}
	return u, r
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
	if c.redirect == 0 {
		wake = sooner(wake, c.fetchReadyAt, now)
	}
	if c.inj != nil {
		wake = sooner(wake, (now+injCheckMask)&^injCheckMask, now)
	}
	for t := now; t < wake && t < now+ringSize; t++ {
		if s := t % ringSize; c.evHead[s] != 0 || c.mshrredeem[s] != 0 {
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
	if c.redirect == 0 {
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
	r := c.evHead[slot]
	if r == 0 {
		return
	}
	c.evHead[slot], c.evTail[slot] = 0, 0
	c.active = true
	var broadcasts uint64
	for ; r != 0; r = c.at(r).evNext {
		u := c.at(r)
		u.state = stDone
		c.sigN[atComplete][u.sig]++
		for d := range u.wake {
			for v := u.wake[d]; v != 0; {
				w := c.at(v)
				w.pend &^= 1 << d
				v = w.wakeNext[d]
			}
			u.wake[d] = 0
		}
		if c.last[u.dstMap] == r {
			c.last[u.dstMap] = 0
		}
		if u.dstInt || u.dstFp {
			broadcasts++
		}
		if u.mispred && c.redirect == r {
			// Branch resolved in execute: schedule the front-end redirect
			// and flush the wrong-path entries from the issue queues.
			c.redirect = 0
			c.fetchReadyAt = c.cycle + redirectPenalty
			c.wrongInt, c.wrongMem, c.wrongFp = 0, 0, 0
		}
	}
	// Wakeup: on each result broadcast every valid issue-queue entry
	// compares its source tags against the broadcast tag (CAM activity
	// scales with occupancy — the effect behind Key Takeaway #4). The
	// queues do not change while completions are processed, so a cycle's
	// broadcasts are charged at once.
	c.stats.Comp[CompIntIssue].CAMSearches += broadcasts * uint64(len(c.intQ))
	c.stats.Comp[CompMemIssue].CAMSearches += broadcasts * uint64(len(c.memQ))
	c.stats.Comp[CompFpIssue].CAMSearches += broadcasts * uint64(len(c.fpQ))
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	n := 0
	for n < c.cfg.RetireWidth && c.head < c.mid {
		u := c.slot(c.head)
		if u.state != stDone {
			break
		}
		seq := c.head
		c.head++
		c.sigN[atCommit][u.sig]++
		if u.isStore {
			if !c.dcache.probe(u.memAddr) {
				// Write miss: allocate through L2 (no pipeline stall; the
				// store buffer hides it, but the energy is real).
				c.dcache.access(u.memAddr)
				c.l2.access(u.memAddr)
			}
			// Prune from the store queue (it is always the oldest).
			if c.stq.len() > 0 && c.stq.front() == seq {
				c.stq.popFront()
			}
		}
		if u.isLoad {
			c.ldqUsed--
		}
		if u.dstInt {
			c.intInFlight--
		}
		if u.dstFp {
			c.fpInFlight--
		}
		c.retired++
		if c.traceW != nil {
			c.traceRetire(u, seq)
		}
		n++
	}
	if n > 0 {
		c.active = true
	}
}

func (c *Core) schedule(r ref, doneAt uint64) {
	u := c.at(r)
	if c.traceW != nil {
		c.traceIssue(u, r)
	}
	u.state = stIssued
	u.doneAt = doneAt
	u.evNext = 0
	slot := doneAt % ringSize
	if t := c.evTail[slot]; t != 0 {
		c.at(t).evNext = r
	} else {
		c.evHead[slot] = r
	}
	c.evTail[slot] = r
	c.active = true
}

// issueAll runs the three distributed scheduler queues, skipping a stage
// with nothing to issue. The integer and memory queues share the integer
// register file read ports; the FP queue (plus FP store data) uses the FP
// ports.
func (c *Core) issueAll() {
	intReads := c.cfg.IntRFReadPorts
	fpReads := c.cfg.FpRFReadPorts
	if len(c.intQ) > 0 {
		c.issueInt(&intReads)
	}
	if len(c.memQ) > 0 || len(c.stdWait) > 0 {
		c.issueMem(&intReads, &fpReads)
	}
	if len(c.fpQ) > 0 {
		c.issueFp(&fpReads)
	}
}

func (c *Core) issueInt(intReads *int) {
	issued := 0
	q, kept, i := c.intQ, 0, 0
	for ; i < len(q) && issued < c.cfg.IntIssueWidth; i++ {
		r := q[i]
		q[kept] = r // stays unless granted
		u := c.at(r)
		if u.pend != 0 {
			kept++
			continue
		}
		reads := u.nIntSrcs()
		if reads > *intReads {
			kept++
			continue
		}
		var lat uint64
		switch u.class {
		case rv64.ClassMul:
			lat = latMul
		case rv64.ClassDiv:
			if c.cycle < c.divBusyUntil {
				kept++
				continue
			}
			lat = latDiv
			c.divBusyUntil = c.cycle + latDiv
		default:
			lat = latALU
		}
		*intReads -= reads
		c.stats.Comp[CompIntRF].Reads += uint64(reads)
		c.grant(CompIntIssue, len(q)-i-1)
		c.schedule(r, c.cycle+lat)
		c.countExec(u)
		issued++
	}
	c.intQ = collapse(q, kept, i)
}

func (c *Core) issueMem(intReads, fpReads *int) {
	// Store-data (STD) completion: stores whose address generation already
	// issued finish as soon as their data operand arrives.
	for i := 0; i < len(c.stdWait); {
		r := c.stdWait[i]
		u := c.at(r)
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
		c.schedule(r, c.cycle+latStore)
	}

	issued := 0
	q, kept, i := c.memQ, 0, 0
	for ; i < len(q) && issued < c.cfg.MemIssueWidth; i++ {
		r := q[i]
		q[kept] = r // stays unless granted
		u := c.at(r)
		if *intReads < 1 { // AGU always reads the base register
			break
		}
		if u.isStore {
			// STA issues as soon as the address operand is ready, BOOM's
			// STA/STD split: younger loads then disambiguate against it.
			if u.pend&pendAddr != 0 {
				kept++
				continue
			}
			*intReads--
			c.stats.Comp[CompIntRF].Reads++
			u.addrKnown = true
			// Store issue searches the load queue for ordering violations.
			c.stats.Comp[CompLSU].CAMSearches += uint64(c.ldqUsed)
			c.grant(CompMemIssue, len(q)-i-1)
			c.countExec(u)
			if u.pend&pendData == 0 {
				// Data already available: STD fires with the STA.
				if u.fpData {
					c.stats.Comp[CompFpRF].Reads++
				} else {
					c.stats.Comp[CompIntRF].Reads++
				}
				c.schedule(r, c.cycle+latStore)
			} else {
				c.stdWait = append(c.stdWait, r)
			}
			issued++
			continue
		}

		if u.pend != 0 {
			kept++
			continue
		}
		// Load: older stores must have known addresses, then forward or
		// access the L1D.
		blocked := false
		var forwarder *uop
		seq := c.seqOf(r)
		for j, nstq := 0, c.stq.len(); j < nstq; j++ {
			ss := c.stq.at(j)
			if ss >= seq {
				break
			}
			s := c.slot(ss)
			if !s.addrKnown {
				blocked = true
				break
			}
			if rangesOverlap(s.memAddr, uint64(s.memSize), u.memAddr, uint64(u.memSize)) {
				forwarder = s // youngest older matching store wins
			}
		}
		if blocked {
			kept++
			continue
		}
		if forwarder != nil && forwarder.state != stDone {
			// Matching older store whose data hasn't arrived: wait.
			kept++
			continue
		}
		// Load issue searches the store queue (CAM) for forwarding.
		c.stats.Comp[CompLSU].CAMSearches += uint64(c.stq.len())
		if forwarder != nil {
			*intReads--
			c.stats.Comp[CompIntRF].Reads++
			c.stats.StoreForward++
			c.grant(CompMemIssue, len(q)-i-1)
			c.schedule(r, c.cycle+latForward)
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
			kept++
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
		c.grant(CompMemIssue, len(q)-i-1)
		c.schedule(r, c.cycle+lat)
		c.countExec(u)
		issued++
	}
	c.memQ = collapse(q, kept, i)
}

func (c *Core) issueFp(fpReads *int) {
	issued := 0
	q, kept, i := c.fpQ, 0, 0
	for ; i < len(q) && issued < c.cfg.FpIssueWidth; i++ {
		r := q[i]
		q[kept] = r // stays unless granted
		u := c.at(r)
		if u.pend != 0 {
			kept++
			continue
		}
		reads := u.nFpSrcs()
		intReads := u.nIntSrcs() // fcvt/fmv from the int file
		if reads > *fpReads {
			kept++
			continue
		}
		var lat uint64
		switch u.class {
		case rv64.ClassFPMul:
			lat = latFPMul
		case rv64.ClassFPDiv:
			if c.cycle < c.fdivBusyUntil {
				kept++
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
		c.grant(CompFpIssue, len(q)-i-1)
		c.schedule(r, c.cycle+lat)
		c.countExec(u)
		issued++
	}
	c.fpQ = collapse(q, kept, i)
}

// Each issue queue is a collapsing queue, scanned oldest first once per
// cycle: an entry that stays moves down over the granted ones as the scan
// passes it, and the unscanned rest follows in one copy. The scan's q,
// kept and i give the queue that remains.
func collapse(q []ref, kept, i int) []ref {
	if kept == i {
		return q
	}
	return q[:kept+copy(q[kept:], q[i:])]
}

// grant charges an issue-queue entry's read-out and the shifts compaction
// performs in hardware (Key Takeaway #5): every entry behind it in the
// queue as it stood at the start of the cycle moves down one.
func (c *Core) grant(comp Component, behind int) {
	c.stats.Comp[comp].Reads++
	c.stats.Comp[comp].Shifts += uint64(behind)
	c.active = true
}

func (c *Core) countExec(u *uop) {
	c.stats.ExecOps[u.class]++
}

// dispatch renames and dispatches up to DecodeWidth instructions from the
// fetch buffer into the ROB and the issue queues. What it charges per µop
// is a function of the µop's signature alone, so it counts the µop once
// (sigN) and foldDispatch says what that costs.
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DecodeWidth && c.mid < c.tail; n++ {
		if c.mid-c.head >= uint64(c.cfg.RobEntries) {
			return
		}
		u := c.slot(c.mid)
		// Queue selection and remaining capacity (wrong-path entries occupy
		// slots until the flush) are keyed by the µop's precomputed queue
		// selector.
		var q *[]ref
		var cap_ int
		switch u.qSel {
		case qMem:
			q, cap_ = &c.memQ, c.cfg.MemIssueSlots-c.wrongMem
		case qFp:
			q, cap_ = &c.fpQ, c.cfg.FpIssueSlots-c.wrongFp
		default:
			q, cap_ = &c.intQ, c.cfg.IntIssueSlots-c.wrongInt
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

		r := c.ref(c.mid)
		c.mid++
		c.active = true
		c.sigN[atDispatch][u.sig]++
		if c.traceW != nil {
			c.stamp(r).dispatched = c.cycle
		}

		c.renameSources(u, r)
		c.last[u.dstMap] = r
		if u.dstInt {
			c.intInFlight++
		}
		if u.dstFp {
			c.fpInFlight++
		}
		if u.isLoad {
			c.ldqUsed++
		}
		if u.isStore {
			c.stq.pushBack(c.mid - 1)
		}
		*q = append(*q, r)
		c.disp[u.qSel]++
		if r == c.redirect {
			// The mispredicted branch ends its fetch group, so it is the
			// last µop to dispatch until it resolves: the wrong-path mix is
			// the class mix as of now.
			c.redirectDisp = true
			total := c.disp[qInt] + c.disp[qMem] + c.disp[qFp]
			budget := uint64(c.cfg.DecodeWidth)
			c.wpInt = int((budget*c.disp[qInt] + total - 1) / total)
			c.wpMem = int(budget * c.disp[qMem] / total)
			c.wpFp = int(budget * c.disp[qFp] / total)
		}
	}
}

// renameSources walks the source-slot rename indices precomputed at crack
// time: a slot whose producer has not completed becomes a pend bit and an
// entry on that producer's wake list.
func (c *Core) renameSources(u *uop, r ref) {
	for d, m := range u.srcMap {
		if p := c.last[m]; p != 0 {
			u.pend |= 1 << d
			pu := c.at(p)
			u.wakeNext[d] = pu.wake[d]
			pu.wake[d] = r
		}
	}
}

// fetch models the front end for one cycle.
func (c *Core) fetch() {
	if c.redirect != 0 {
		c.wrongPath()
		return
	}
	if c.cycle < c.fetchReadyAt {
		return
	}
	if c.tail-c.mid >= uint64(c.cfg.FetchBufferEntries) {
		return
	}
	u, rec := c.pullTrace()
	if u == nil {
		return
	}
	c.active = true

	// One I-cache read and one predictor lookup per fetch cycle.
	c.stats.Comp[CompICache].Reads++
	c.bp.lookupCycle()
	if c.icache.access(u.pc) {
		c.stats.ICacheHits++
	} else {
		c.stats.ICacheMisses++
		c.stats.Comp[CompICache].Writes++ // fill
		extra := uint64(c.cfg.L2Latency)
		if c.l2.access(u.pc) {
			c.stats.L2Hits++
		} else {
			c.stats.L2Misses++
			extra += uint64(c.cfg.MemLatency)
		}
		c.fetchReadyAt = c.cycle + extra
		return // retry when the line arrives
	}

	line := u.pc >> fetchLineShift
	for n := 1; ; n++ {
		r := c.ref(c.tail)
		c.peeked = false
		c.tail++
		if c.traceW != nil {
			c.stamp(r).fetched = c.cycle
		}
		c.stats.Comp[CompFetchBuffer].Writes++
		if isControl(u.class) && c.predict(u, r, rec.NextPC) {
			return
		}
		if n == c.cfg.FetchWidth || c.tail-c.mid >= uint64(c.cfg.FetchBufferEntries) {
			return
		}
		if u, rec = c.pullTrace(); u == nil || u.pc>>fetchLineShift != line {
			return // next fetch group starts at the new line
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

// predict runs the front-end prediction machinery for one fetched control
// µop, which r names and whose architectural successor is nextPC, and
// reports whether the fetch group must end (taken control flow or pending
// redirect). Training is bpred.train's; predict keeps the redirect and the
// BTB bubble.
func (c *Core) predict(u *uop, r ref, nextPC uint64) bool {
	o := c.bp.train(&u.uopStatic, u.pc, u.taken, nextPC)
	switch o {
	case bpMispredict:
		u.mispred = true
		c.redirect, c.redirectDisp = r, false
	case bpBTBMiss:
		c.fetchReadyAt = c.cycle + btbBubble
	}
	return endsFetchGroup(u.class, u.taken, o)
}

// accountOccupancy records n cycles at the current occupancy of every
// tracked structure (n is 1 except when skipQuiet jumps) into the flat
// accumulators; flushAcc folds them into stats at interval boundaries. The
// int-queue slot profile is recorded as an occupancy histogram rather than
// a per-slot loop.
func (c *Core) accountOccupancy(n uint64) {
	c.accCycles += n
	c.accOcc[CompFetchBuffer] += n * (c.tail - c.mid)
	c.accOcc[CompRob] += n * (c.mid - c.head)
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
