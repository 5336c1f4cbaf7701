package core

import (
	"errors"
	"fmt"
)

// StageError identifies where in the flow an error occurred: the pipeline
// stage (profile/select/checkpoint/warmup/measure/estimate), the workload,
// and — for detailed-model stages — the BOOM configuration. It wraps the
// underlying cause for errors.Is/As.
//
// Supervised sweeps add failure forensics: Attempt counts retries consumed
// before the error became final, and a recovered worker panic carries
// Panicked plus the goroutine stack captured at the recovery point.
type StageError struct {
	Stage    string // one of the Stage* constants
	Workload string
	Config   string // BOOM config name; empty for config-independent stages
	Attempt  int    // 1-based attempt that produced Err; 0/1 = first try
	Panicked bool   // Err was recovered from a panic in a sweep worker
	Stack    []byte // goroutine stack at recovery (only when Panicked)
	Err      error
}

func (e *StageError) Error() string {
	s := "core: stage " + e.Stage
	if e.Workload != "" {
		s += " workload=" + e.Workload
	}
	if e.Config != "" {
		s += " config=" + e.Config
	}
	if e.Attempt > 1 {
		s += fmt.Sprintf(" attempt=%d", e.Attempt)
	}
	if e.Panicked {
		s += " (recovered panic)"
	}
	return fmt.Sprintf("%s: %v", s, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Transient marks err as retryable under the Runner's retry policy
// (WithRetry): the fault is expected to be environmental — cache I/O,
// injected chaos, a tripped watchdog — rather than a deterministic property
// of the model or its inputs. The wrapper preserves errors.Is/As.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// IsTransient reports whether err (or anything it wraps) declares itself
// retryable via a `Transient() bool` method. Deterministic model errors —
// a pipeline deadlock, an invalid configuration, a diverged checkpoint —
// carry no such marker and fail once.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// SweepErrors is the multi-error a keep-going sweep returns: one failure
// per cause, in cell order (see Plan.Err), each (normally) a *StageError
// naming the stage, workload and config that failed. Unwrap exposes the slice to
// errors.Is/As, so callers can still test for context.Canceled, a panic, a
// deadlock sentinel, or a specific stage across the whole collection.
type SweepErrors struct {
	Errs []error
}

func (e *SweepErrors) Error() string {
	if len(e.Errs) == 1 {
		return fmt.Sprintf("core: sweep: 1 task failed: %v", e.Errs[0])
	}
	return fmt.Sprintf("core: sweep: %d tasks failed; first: %v", len(e.Errs), e.Errs[0])
}

func (e *SweepErrors) Unwrap() []error { return e.Errs }
