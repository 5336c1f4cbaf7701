package boom

import (
	"fmt"
	"io"

	"repro/internal/rv64"
	"repro/internal/sim"
)

// pipeStamp is what the pipeline trace keeps of one µop beside the window:
// its instruction and lifecycle cycles. The µop itself carries none of it.
type pipeStamp struct {
	seq                         uint64 // the µop these stamps are of
	inst                        rv64.Inst
	fetched, dispatched, issued uint64
}

// SetPipeTrace streams a per-instruction pipeline lifecycle trace to w (one
// line per retired uop: fetch/dispatch/issue/complete/retire cycles), up to
// maxUops lines. It is the textual equivalent of a waveform/Konata view of
// the Verilator run and is meant for debugging and teaching; it slows the
// model down and should stay off in experiments. Pass nil to disable. The
// trace covers the µops fetched from the trace after it is attached.
func (c *Core) SetPipeTrace(w io.Writer, maxUops uint64) {
	c.traceW = w
	c.traceLeft = maxUops
	c.stamps = nil
	if w != nil {
		c.stamps = make([]pipeStamp, len(c.win))
		fmt.Fprintf(w, "%-6s %-10s %-28s %8s %8s %8s %8s %8s\n",
			"seq", "pc", "instruction", "fetch", "disp", "issue", "done", "retire")
	}
}

// stamp is the side-table entry of the window slot r names.
func (c *Core) stamp(r ref) *pipeStamp { return &c.stamps[r-1] }

// tracePull starts the stamps of the lookahead µop pullTrace fills from r.
func (c *Core) tracePull(r *sim.Retired) {
	*c.stamp(c.ref(c.tail)) = pipeStamp{seq: c.tail, inst: r.Inst}
}

// traceRetire prints the line of u, sequence number seq, as it commits.
func (c *Core) traceRetire(u *uop, seq uint64) {
	st := c.stamp(c.ref(seq))
	if c.traceLeft == 0 || st.seq != seq {
		return
	}
	c.traceLeft--
	flags := ""
	if u.mispred {
		flags = " !mispredict"
	}
	fmt.Fprintf(c.traceW, "%-6d %-#10x %-28s %8d %8d %8d %8d %8d%s\n",
		seq, u.pc, rv64.Disassemble(st.inst), st.fetched, st.dispatched, st.issued, u.doneAt, c.cycle, flags)
	if c.traceLeft == 0 {
		fmt.Fprintln(c.traceW, "... pipeline trace limit reached")
	}
}
