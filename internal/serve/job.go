package serve

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
)

// jobState is a job's position in its lifecycle. Transitions are
// queued → running → done|failed, all under Server.mu.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// job is one admitted campaign. The id is the campaign fingerprint, so a
// job is also the single-flight slot for its campaign: duplicates find it
// in Server.jobs and collapse onto it instead of enqueueing.
type job struct {
	id   string
	camp core.Campaign

	// Mutable state, guarded by Server.mu.
	state     jobState
	collapsed int
	err       string
	result    []byte // canonical EncodeSweep bytes, written once

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// worker is the one sweep goroutine: it drains the queue, a job at a time,
// until BeginDrain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob builds the job's Runner — here, not at submission, so a collapsed,
// rejected or still-queued submission opens no cache and no remote-store
// client — and executes one sweep under the server's base context. The cache
// makes cancellation lossless: every finished stage is stored before the
// sweep returns, so after a drain that cancels mid-campaign a resubmission
// recomputes only what had not finished.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = jobRunning
	s.mu.Unlock()
	s.reg.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	s.reg.Counter("serve.sweeps_started").Inc()
	s.logf("sweep %s: %d workload(s) × %d design point(s) at %s scale",
		core.ShortID(j.id), len(j.camp.Workloads), len(j.camp.Configs), j.camp.Scale)

	start := time.Now()
	var sw *core.Sweep
	runner, err := s.newRunner(j.camp) // fails only on an Engine New would have refused
	if err == nil && s.cfg.Distribute != nil {
		// Distributed plane: the fabric coordinator shards the campaign
		// across live workers (or runs it on runner when none are),
		// returning the same canonical Sweep either way.
		sw, err = s.cfg.Distribute(s.baseCtx, j.id, j.camp, runner)
	} else if err == nil {
		sw, err = runner.Sweep(s.baseCtx, j.camp)
	}
	var payload []byte
	var encErr error
	if sw != nil {
		payload, encErr = EncodeSweep(j.id, j.camp.Scale, sw)
	}

	s.mu.Lock()
	switch {
	case sw == nil || encErr != nil:
		j.state = jobFailed
		switch {
		case encErr != nil:
			j.err = "encoding result: " + encErr.Error()
		case err != nil:
			j.err = err.Error()
		default:
			j.err = "sweep returned no result"
		}
	default:
		// Keep-going sweeps reach here with err != nil and a partial
		// Sweep; the result carries the Failed list and the status
		// carries the error text.
		j.state = jobDone
		j.result = payload
		if err != nil {
			j.err = err.Error()
		}
	}
	failed := j.state == jobFailed
	s.mu.Unlock()

	if failed {
		s.reg.Counter("serve.sweeps_failed").Inc()
		if errors.Is(err, context.Canceled) {
			s.logf("sweep %s: canceled during drain after %s (a resubmission resumes from the cache)",
				core.ShortID(j.id), time.Since(start).Round(time.Millisecond))
		} else {
			s.logf("sweep %s: failed: %v", core.ShortID(j.id), err)
		}
	} else {
		s.reg.Counter("serve.sweeps_done").Inc()
		s.logf("sweep %s: done in %s", core.ShortID(j.id), time.Since(start).Round(time.Millisecond))
	}
	close(j.done)
}

// BeginDrain stops admission: new submissions get 503, queued jobs still
// run. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains gracefully: stop admitting, let in-flight and queued
// sweeps finish. If ctx expires first, the sweeps' contexts are canceled
// — they stop at the next task boundary with everything completed so far
// already in the cache — and Shutdown returns ctx.Err.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
	}
	s.cancel()
	<-done
	return ctx.Err()
}

// Close force-stops: cancel the sweep in flight and wait for the worker to
// exit.
// For tests; production shutdown is Shutdown.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancel()
	s.wg.Wait()
}
