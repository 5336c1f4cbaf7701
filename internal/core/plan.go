package core

import "slices"

// CellState is where a cell of a Plan stands.
type CellState uint8

const (
	CellPending CellState = iota // not started, or sent back by Release
	CellRunning                  // started by an executor
	CellDone                     // the terminal states come last (see Finished)
	CellFailed
)

// Plan is a campaign's scheduling policy, the one both executors share:
// Runner.Sweep's workers and the fabric coordinator's leases. It decides
// which cell may run next, what a failure takes down, when the campaign is
// over and what its verdict is; running a cell, and everything an executor
// keeps beside it (leases, audits, timings), is the executor's.
//
// The cells are the profile cells in workload order, then the measure
// cells, configs outer: measure cell i waits on profile cell
// (i − nprof) % nprof. A plan has no lock; its executor serializes calls.
type Plan struct {
	cells     []Cell
	nprof     int
	state     []CellState
	errs      []error // a failed cell's cause; nil for one its profile took down
	keepGoing bool
	stop      error // the failure that stopped a fail-fast plan
}

// NewPlan plans camp with every cell pending. Without keepGoing the first
// failure stops the plan: nothing starts after it, and it is the verdict.
func NewPlan(camp Campaign, keepGoing bool) *Plan {
	nprof := len(camp.Workloads)
	cells := make([]Cell, 0, nprof+camp.Cells())
	for _, wl := range camp.Workloads {
		cells = append(cells, Cell{Kind: StageProfile, Workload: wl})
	}
	for i := range camp.Configs {
		for _, wl := range camp.Workloads {
			cells = append(cells, Cell{Kind: StageMeasure, Workload: wl, Config: camp.Configs[i].Name})
		}
	}
	return &Plan{cells: cells, nprof: nprof, keepGoing: keepGoing,
		state: make([]CellState, len(cells)), errs: make([]error, len(cells))}
}

// Cells returns the plan's cells in plan order; callers must not modify it.
func (p *Plan) Cells() []Cell { return p.cells }

// State returns cell i's state.
func (p *Plan) State(i int) CellState { return p.state[i] }

// runnable reports whether cell i is pending and, for a measure cell,
// its profile is done.
func (p *Plan) runnable(i int) bool {
	return p.state[i] == CellPending && (i < p.nprof || p.state[(i-p.nprof)%p.nprof] == CellDone)
}

// Start starts cell i if it is runnable and no failure has stopped the plan.
func (p *Plan) Start(i int) bool {
	if p.stop != nil || !p.runnable(i) {
		return false
	}
	p.state[i] = CellRunning
	return true
}

// Next starts and returns the first cell Start accepts, or −1.
func (p *Plan) Next() int {
	for i := range p.cells {
		if p.Start(i) {
			return i
		}
	}
	return -1
}

// Release sends a running or done cell back to pending.
func (p *Plan) Release(i int) { p.state[i] = CellPending }

// Done marks a running cell done.
func (p *Plan) Done(i int) { p.state[i] = CellDone }

// Fail marks a pending or running cell failed with cause err (non-nil).
// A failed profile cell takes its pending measure cells down with it; they
// fail without a cause of their own. Fail returns how many cells it failed.
func (p *Plan) Fail(i int, err error) int {
	p.state[i], p.errs[i] = CellFailed, err
	n := 1
	if i < p.nprof {
		for j := p.nprof + i; j < len(p.cells); j += p.nprof {
			if p.state[j] == CellPending {
				p.state[j] = CellFailed
				n++
			}
		}
	}
	if !p.keepGoing && p.stop == nil {
		p.stop = err
	}
	return n
}

// Finished reports whether the campaign is over: every cell is done or
// failed, or a failure stopped a fail-fast plan.
func (p *Plan) Finished() bool {
	return p.stop != nil || !slices.ContainsFunc(p.state, func(s CellState) bool { return s < CellDone })
}

// Err is the plan's verdict: nil, the failure that stopped a fail-fast
// plan, or a *SweepErrors with one error per cause in cell order.
func (p *Plan) Err() error {
	if p.stop != nil {
		return p.stop
	}
	var errs []error
	for _, err := range p.errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if errs == nil {
		return nil
	}
	return &SweepErrors{Errs: errs}
}
