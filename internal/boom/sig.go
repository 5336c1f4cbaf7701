package boom

// Activity signatures. Most of what a µop charges at dispatch, completion
// and commit — rename reads, writes and snapshot shifts, the ROB, LSU,
// issue-queue, decode and fetch-buffer ports, register-file writes, the
// committed store's D-cache write, and the instruction, load and store
// counts — is a pure function of its cracked form. The tick kernel counts
// µops once per stage by signature (sigN) and flushAcc folds the counts
// into stats; the charges that depend on pipeline state (CAM searches,
// queue shifts, cache outcomes) stay where they happen.

import "repro/internal/rv64"

// A signature is fpRename × dst × ctrl × mem × nSrcs × qSel.
const (
	sigDsts   = 3 // dstNone, dstInt, dstFp
	sigCtrls  = 2 // a branch, JAL or JALR, or not
	sigMems   = 3 // memNone, memLoad, memStore
	sigSrcs   = 4 // rename reads, 0..3
	sigQueues = 3 // qInt, qMem, qFp
	numSigs   = 2 * sigDsts * sigCtrls * sigMems * sigSrcs * sigQueues
)

const (
	dstNone = iota
	dstInt
	dstFp
)

const (
	memNone = iota
	memLoad
	memStore
)

// The stages that count µops by signature.
const (
	atDispatch = iota
	atComplete
	atCommit
	numSigStages
)

// queueComp is the issue-queue component of each queue selector.
var queueComp = [sigQueues]Component{qInt: CompIntIssue, qMem: CompMemIssue, qFp: CompFpIssue}

// sigFields is a signature taken apart.
type sigFields struct {
	fpRename, ctrl bool
	dst, mem       int
	nSrcs          uint64
	qSel           uint8
}

// sigOf is the signature of a cracked instruction.
func sigOf(st *uopStatic) uint16 {
	f := sigFields{fpRename: st.fpRename, nSrcs: uint64(st.nSrcs()), qSel: st.qSel}
	switch {
	case st.dstInt:
		f.dst = dstInt
	case st.dstFp:
		f.dst = dstFp
	}
	switch {
	case st.isLoad:
		f.mem = memLoad
	case st.isStore:
		f.mem = memStore
	}
	f.ctrl = st.class == rv64.ClassBranch || st.class == rv64.ClassJAL || st.class == rv64.ClassJALR
	sig := int(boolBit(f.fpRename))
	sig = sig*sigDsts + f.dst
	sig = sig*sigCtrls + int(boolBit(f.ctrl))
	sig = sig*sigMems + f.mem
	sig = sig*sigSrcs + int(f.nSrcs)
	sig = sig*sigQueues + int(f.qSel)
	return uint16(sig)
}

// decodeSig inverts sigOf.
func decodeSig(sig int) sigFields {
	var f sigFields
	f.qSel, sig = uint8(sig%sigQueues), sig/sigQueues
	f.nSrcs, sig = uint64(sig%sigSrcs), sig/sigSrcs
	f.mem, sig = sig%sigMems, sig/sigMems
	f.ctrl, sig = sig%sigCtrls == 1, sig/sigCtrls
	f.dst, sig = sig%sigDsts, sig/sigDsts
	f.fpRename = sig == 1
	return f
}

// foldSigs charges stats with the activity of every µop counted since the
// last fold, and zeroes the counts.
func (c *Core) foldSigs() {
	s := c.stats
	for stage := range c.sigN {
		counts := &c.sigN[stage]
		for sig, n := range counts {
			if n == 0 {
				continue
			}
			counts[sig] = 0
			f := decodeSig(sig)
			switch stage {
			case atDispatch:
				c.foldDispatch(f, n)
			case atComplete:
				switch f.dst {
				case dstInt:
					s.Comp[CompIntRF].Writes += n
				case dstFp:
					s.Comp[CompFpRF].Writes += n
				}
			case atCommit:
				s.Insts += n
				s.Comp[CompRob].Reads += n
				switch f.mem {
				case memLoad:
					s.Comp[CompLSU].Reads += n
				case memStore:
					// Store data leaves the store queue for the L1D.
					s.Comp[CompLSU].Reads += n
					s.Comp[CompDCache].Writes += n
				}
			}
		}
	}
}

// foldDispatch charges n dispatches of one signature: the fetch-buffer
// read, rename (map-table reads for the sources, a write for the
// destination and, on any branch that can mispredict, a snapshot copy of
// both free lists — BOOM's allocation lists; Key Takeaway #3), the ROB,
// LSU and issue-queue writes, and the decode logic.
func (c *Core) foldDispatch(f sigFields, n uint64) {
	s := c.stats
	s.Comp[CompFetchBuffer].Reads += n
	rename := &s.Comp[CompIntRename]
	if f.fpRename {
		rename = &s.Comp[CompFpRename]
	}
	rename.Reads += n * f.nSrcs
	if f.dst != dstNone {
		rename.Writes += n
	}
	if f.ctrl {
		s.Comp[CompIntRename].Shifts += n * uint64(c.cfg.IntPhysRegs)
		s.Comp[CompFpRename].Shifts += n * uint64(c.cfg.FpPhysRegs)
	}
	switch f.mem {
	case memLoad:
		s.Loads += n
		s.Comp[CompLSU].Writes += n
	case memStore:
		s.Stores += n
		s.Comp[CompLSU].Writes += n
	}
	s.Comp[CompRob].Writes += n
	s.Comp[queueComp[f.qSel]].Writes += n
	s.Comp[CompOther].Reads += n
}
