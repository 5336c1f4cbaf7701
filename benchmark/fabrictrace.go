package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// fabricProbe is the traced pass's view of the wire: it wraps the two
// seams the benchmark itself hands to the daemon — the Distribute hook and
// the coordinator's HTTP handler — and so sees every campaign hand-off and
// every worker RPC without touching either package.
type fabricProbe struct {
	mu sync.Mutex

	// filled by fabricWL.run
	submitMS    float64
	resultBytes int

	postStart time.Time // first POST sent
	distStart time.Time // Distribute hook entered
	distEnd   time.Time // Distribute hook returned
	campaign  string
	sweep     *core.Sweep

	rpcs      int
	idlePolls int
	leased    map[string]time.Time     // worker → grant time of the cell it holds
	busy      map[string]time.Duration // worker → time between grants and done reports
}

type distributeFunc = func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error)

func (p *fabricProbe) wrapDistribute(next distributeFunc) distributeFunc {
	return func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error) {
		start := time.Now()
		sw, err := next(ctx, id, camp, local)
		p.mu.Lock()
		p.distStart, p.distEnd, p.campaign, p.sweep = start, time.Now(), id, sw
		p.mu.Unlock()
		return sw, err
	}
}

// captureWriter keeps a copy of a response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// wrapHandler counts the workers' RPCs. A poll answered with a task starts
// that worker's busy clock and its done report stops it; a poll answered
// without one is an idle poll.
func (p *fabricProbe) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // a short read surfaces in the wrapped handler's decode
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)

		var req struct {
			Worker string `json:"worker"`
		}
		_ = json.Unmarshal(body, &req) // GETs carry no body; the zero value is right for them
		now := time.Now()
		p.mu.Lock()
		defer p.mu.Unlock()
		p.rpcs++
		switch {
		case strings.HasSuffix(r.URL.Path, "/poll"):
			var resp struct {
				Task *json.RawMessage `json:"task"`
			}
			if json.Unmarshal(cw.buf.Bytes(), &resp) != nil || resp.Task == nil {
				p.idlePolls++
				return
			}
			if p.leased == nil {
				p.leased, p.busy = map[string]time.Time{}, map[string]time.Duration{}
			}
			p.leased[req.Worker] = now
		case strings.HasSuffix(r.URL.Path, "/done"):
			if t0, ok := p.leased[req.Worker]; ok {
				p.busy[req.Worker] += now.Sub(t0)
				delete(p.leased, req.Worker)
			}
		}
	})
}

// traceLayers reads the wire's own account of the traced repetition while
// the cluster is still up, then replays the store's entries through the
// remote client.
func (w *fabricWL) traceLayers(tr *tracer, lm layerMetrics, _ *rep) error {
	p := w.probe
	p.mu.Lock()
	sw, id, distStart, distEnd := p.sweep, p.campaign, p.distStart, p.distEnd
	rpcs, idle := p.rpcs, p.idlePolls
	var busy time.Duration
	for _, d := range p.busy {
		busy += d
	}
	p.mu.Unlock()

	registryCounts(lm, append([]*metrics.Registry{w.reg}, w.workerRegs...)...)
	lm["fabric.cells"] = float64(w.reg.Counter("fabric.cells_done").Value())
	lm["fabric.cells_stolen"] = float64(w.reg.Counter("fabric.cells_stolen").Value())
	lm["fabric.cell_retries"] = float64(w.reg.Counter("fabric.cells_requeued").Value())
	lm["fabric.rpcs"] = float64(rpcs)
	lm["fabric.idle_polls"] = float64(idle)
	lm["serve.submit_ms"] = p.submitMS
	lm["serve.result_bytes"] = float64(p.resultBytes)
	if sw == nil {
		return nil // the campaign failed; run() already recorded why
	}
	campaign := distEnd.Sub(distStart)
	lm["fabric.worker_busy_pct"] = 100 * busy.Seconds() / (campaign.Seconds() * float64(w.workers))
	// POST sent → Distribute hook entered: request decode, campaign
	// fingerprint, admission and the wait for the sweep worker.
	lm["serve.queue_wait_ms"] = float64(distStart.Sub(p.postStart).Nanoseconds()) / 1e6

	out := &outcome{}
	sweepCells(out, sw)
	simulatedCounts(lm, out.cells, out.profiles)
	root := tr.start(-1, "replay.fabric")
	var err error
	tr.time(root, "serve.encode_sweep", func() { _, err = serve.EncodeSweep(id, workloads.ScaleTiny, sw) })
	if err != nil {
		return err
	}
	lm["serve.encode_sweep_ms"] = tr.ms(root, "serve.encode_sweep")

	// Every entry the campaign left in the coordinator's store, fetched
	// and pushed back through the remote tier's client over the same
	// loopback listener the workers used.
	remote := artifact.NewRemote(w.ts.URL, nil)
	for _, stage := range artifactStages {
		keys, err := stageKeys(w.dirs[0], stage)
		if err != nil {
			return err
		}
		for _, k := range keys {
			var entry []byte
			tr.time(root, "artifact.remote_get", func() { entry, err = remote.Fetch(k) })
			if err != nil {
				return err
			}
			tr.time(root, "artifact.remote_put", func() { err = remote.Push(k, entry) })
			if err != nil {
				return err
			}
		}
	}
	tr.stop(root)
	lm["artifact.remote_get_ms"] = tr.ms(root, "artifact.remote_get")
	lm["artifact.remote_put_ms"] = tr.ms(root, "artifact.remote_put")

	local, err := localSweep(w.camp, w.workers)
	if err != nil {
		return err
	}
	lm["local_sweep_s"] = local.Seconds() // against the untraced wall: see traceWorkload
	return nil
}

// localSweep is the in-process reference fabric.overhead_pct compares
// against: the same campaign on the same number of local workers.
func localSweep(camp core.Campaign, par int) (time.Duration, error) {
	r := newRunner(camp.Scale, par, "", nil)
	t0 := time.Now()
	_, err := r.Sweep(context.Background(), camp)
	return time.Since(t0), err
}
