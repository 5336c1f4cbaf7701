package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/boom"
)

// TestSweepMeasuresWhenItsProfileIsDone: a measure cell waits on its own
// profile cell only, never on every profile. With sha's profile stalled,
// the second worker profiles bitcount and goes on to measure it before
// sha's profile ends.
func TestSweepMeasuresWhenItsProfileIsDone(t *testing.T) {
	var mu sync.Mutex
	var notes []string
	_, err := New(DefaultFlowConfig(),
		WithParallelism(2),
		WithFaultInjector(mustInj(t, "1:core.profile/sha=delay:1500ms")),
		WithProgress(func(s string) {
			mu.Lock()
			notes = append(notes, s)
			mu.Unlock()
		}),
	).Sweep(context.Background(), tcamp([]string{"sha", "bitcount"}, []boom.Config{boom.MediumBOOM(), boom.LargeBOOM()}))
	if err != nil {
		t.Fatal(err)
	}
	measured := slices.IndexFunc(notes, func(s string) bool { return strings.HasPrefix(s, "measuring bitcount") })
	profiled := slices.IndexFunc(notes, func(s string) bool { return strings.HasPrefix(s, "  sha ") })
	if measured < 0 || profiled < 0 || measured > profiled {
		t.Errorf("bitcount's first measure (note %d) did not start before sha's profile ended (note %d):\n%s",
			measured, profiled, strings.Join(notes, "\n"))
	}
}

// TestKeepGoingErrorsInCellOrder: a keep-going sweep lists its failures in
// cell order, not in the order they happened — sha's measure fails last
// here but is listed first.
func TestKeepGoingErrorsInCellOrder(t *testing.T) {
	_, err := New(DefaultFlowConfig(),
		WithParallelism(2),
		WithKeepGoing(true),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/*=delay:300ms,core.measure/sha/*=error-perm,core.measure/bitcount/*=error-perm")),
	).Sweep(context.Background(), tcamp([]string{"sha", "bitcount"}, []boom.Config{boom.MediumBOOM()}))
	var se *SweepErrors
	if !errors.As(err, &se) {
		t.Fatalf("want a *SweepErrors, got %v", err)
	}
	var got []string
	for _, e := range se.Errs {
		var st *StageError
		if !errors.As(e, &st) {
			t.Fatalf("failure %v is not a *StageError", e)
		}
		got = append(got, st.Workload)
	}
	if want := []string{"sha", "bitcount"}; !slices.Equal(got, want) {
		t.Errorf("failures name %v, want %v (cell order)", got, want)
	}
}

// TestSweepCancellationReportedOnce: a cancellation is one cause, so a
// keep-going sweep cut short by one reports it in exactly one error.
func TestSweepCancellationReportedOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := New(DefaultFlowConfig(),
		WithParallelism(1),
		WithKeepGoing(true),
		WithTaskHook(func(completed int) {
			if completed == 1 {
				cancel()
			}
		}),
	).Sweep(ctx, tcamp([]string{"sha", "bitcount", "qsort"}, []boom.Config{boom.MediumBOOM()}))
	var se *SweepErrors
	if !errors.As(err, &se) {
		t.Fatalf("want a *SweepErrors, got %v", err)
	}
	n := 0
	for _, e := range se.Errs {
		if errors.Is(e, context.Canceled) {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d of %d error(s) report the cancellation, want exactly 1: %v", n, len(se.Errs), se.Errs)
	}
}

// FuzzPlan drives a plan of 1–3 workloads × 1–3 configs through a stream
// of Next/Start/Done/Fail/Release calls on legal cells and checks it
// against a model after every call: only a pending cell whose profile is
// done starts, and nothing starts after a fail-fast stop; Finished holds
// exactly when every cell is done or failed or a failure stopped the plan;
// Err lists exactly the causes in cell order (or is the first failure
// under fail-fast); and the counts Fail returns add up to the failed cells.
func FuzzPlan(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00\x00",
		"\x01\x01\x01\x00\x00\x00\x00\x02\x00\x00\x00",
		"\x02\x02\x00\x00\x00\x03\x00\x00\x00\x00\x01\x02\x00",
		"\x02\x01\x01\x01\x04\x03\x01\x00\x00\x02\x01\x04\x00\x00\x00\x03\x00",
	} {
		f.Add([]byte(seed))
	}
	wls, cfgs := []string{"sha", "bitcount", "qsort"}, boom.Configs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nw, nc, keepGoing := 1+int(data[0])%3, 1+int(data[1])%3, data[2]&1 == 1
		p := NewPlan(tcamp(wls[:nw], cfgs[:nc]), keepGoing)
		n := len(p.Cells())
		model := make([]CellState, n)
		causes := make([]error, n)
		var stop error
		failedByCalls := 0
		profileDone := func(i int) bool { return i < nw || model[(i-nw)%nw] == CellDone }
		startable := func(i int) bool { return stop == nil && model[i] == CellPending && profileDone(i) }
		in := func(states ...CellState) []int {
			var out []int
			for i, s := range model {
				if slices.Contains(states, s) {
					out = append(out, i)
				}
			}
			return out
		}
		for k, ops := 0, data[3:]; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%5, int(ops[k+1])
			switch op {
			case 0:
				want := -1
				for i := range model {
					if startable(i) {
						want = i
						break
					}
				}
				if got := p.Next(); got != want {
					t.Fatalf("op %d: Next = %d, want %d", k/2, got, want)
				}
				if want >= 0 {
					model[want] = CellRunning
				}
			case 1:
				i := arg % n
				want := startable(i)
				if got := p.Start(i); got != want {
					t.Fatalf("op %d: Start(%d) = %v, want %v", k/2, i, got, want)
				}
				if want {
					model[i] = CellRunning
				}
			case 2:
				if c := in(CellRunning); c != nil {
					i := c[arg%len(c)]
					p.Done(i)
					model[i] = CellDone
				}
			case 3:
				if c := in(CellPending, CellRunning); c != nil {
					i := c[arg%len(c)]
					err := fmt.Errorf("cause %d", k)
					failedByCalls += p.Fail(i, err)
					model[i], causes[i] = CellFailed, err
					if i < nw {
						for j := nw + i; j < n; j += nw {
							if model[j] == CellPending {
								model[j] = CellFailed
							}
						}
					}
					if !keepGoing && stop == nil {
						stop = err
					}
				}
			case 4:
				if c := in(CellRunning, CellDone); c != nil {
					i := c[arg%len(c)]
					p.Release(i)
					model[i] = CellPending
				}
			}
			for i := range model {
				if got := p.State(i); got != model[i] {
					t.Fatalf("op %d: cell %d is %d, want %d", k/2, i, got, model[i])
				}
			}
			if failed := len(in(CellFailed)); failedByCalls != failed {
				t.Fatalf("op %d: Fail counted %d cell(s), %d failed", k/2, failedByCalls, failed)
			}
			open := len(in(CellPending, CellRunning))
			if want := open == 0 || stop != nil; p.Finished() != want {
				t.Fatalf("op %d: Finished = %v with %d open cell(s), stopped %v", k/2, p.Finished(), open, stop != nil)
			}
			err := p.Err()
			if stop != nil {
				if err != stop {
					t.Fatalf("op %d: Err = %v, want the stopping failure %v", k/2, err, stop)
				}
				continue
			}
			var want []error
			for _, c := range causes {
				if c != nil {
					want = append(want, c)
				}
			}
			var se *SweepErrors
			switch {
			case want == nil && err != nil:
				t.Fatalf("op %d: Err = %v with no failure", k/2, err)
			case want != nil && (!errors.As(err, &se) || !slices.Equal(se.Errs, want)):
				t.Fatalf("op %d: Err = %v, want the causes %v in cell order", k/2, err, want)
			}
		}
	})
}
