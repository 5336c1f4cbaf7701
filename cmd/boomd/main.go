// Command boomd serves the experiment sweep engine over HTTP: submit a
// campaign (workloads × BOOM configs at a scale), poll or long-poll for
// the canonical result JSON, scrape /metrics for engine and serving
// state. Campaign fingerprints — built from the inputs the artifact cache
// keys on — double as job IDs, so duplicate in-flight submissions collapse
// onto one sweep.
//
//	boomd -addr :8080 -cache .cache -retries 2 &
//	boomctl submit -scale tiny -wait
//
// The daemon runs one sweep at a time, under the whole -j budget; the
// rest wait in a bounded queue (-queue), and submissions beyond it get 429
// with a Retry-After hint. SIGTERM/SIGINT drains gracefully: admission
// stops (/readyz flips to 503), the in-flight and queued sweeps run to
// completion within -grace, then the process exits. If the grace expires
// first the sweeps are canceled — every completed stage is already stored
// under -cache, so restarting boomd on it and resubmitting the campaign
// recomputes nothing that finished.
//
// boomd is also both halves of the distributed sweep fabric
// (internal/fabric). Every daemon embeds a coordinator: the campaign in
// flight is sharded across any workers polling /v1/fabric/, and runs
// locally when none are — or when the last one falls silent mid-campaign
// (so a solo boomd behaves exactly as before). With -cache the coordinator
// also serves the cluster's remote artifact store at /v1/artifacts/, so a
// restarted daemon re-leases a resubmitted campaign's cells and every one
// that finished before is a store hit. A worker node runs
//
//	boomd -worker -coordinator http://head:8080
//
// which polls the head daemon, leases (workload × config) cells,
// executes them through the ordinary pipeline (local cache over the
// cluster store), and reports canonical result bytes back. Determinism
// makes the distributed result byte-identical to the single-node one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "boomd:", err)
		os.Exit(1)
	}
}

// run is main minus the process boundary: it serves (or, with -worker,
// polls) until ctx is canceled — main cancels it on SIGTERM/SIGINT — and
// then drains. stdout carries the one line scripts scrape for the bound
// address (port 0 support); the lifecycle log goes to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("boomd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	ef := engineflags.Register(fs)
	queueDepth := fs.Int("queue", 8, "job queue depth; excess submissions get 429")
	grace := fs.Duration("grace", 30*time.Second, "drain grace on SIGTERM before canceling in-flight sweeps")
	quiet := fs.Bool("q", false, "log lifecycle events only, not per-stage progress")
	workerMode := fs.Bool("worker", false, "run as a fabric worker instead of a daemon (requires -coordinator)")
	coordinator := fs.String("coordinator", "", "coordinator base URL a -worker polls")
	workerID := fs.String("worker-id", "", "fabric worker identity (default worker-<pid>)")
	lease := fs.Duration("lease", 15*time.Second, "fabric cell lease; a worker silent this long has its cells stolen")
	audit := fs.Float64("audit", 0, "fraction of completed measure cells re-executed on another worker for fingerprint verification (0 = off, 1 = every cell); divergent workers are quarantined")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ef.Validate(); err != nil {
		return err
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("-audit %v: must be in [0, 1]", *audit)
	}

	logf := func(format string, a ...interface{}) {
		fmt.Fprintf(stderr, "boomd: "+format+"\n", a...)
	}
	if *workerMode {
		return runWorker(ctx, *coordinator, *workerID, ef.Engine, logf, stdout)
	}

	// Every daemon embeds a fabric coordinator; with no live workers
	// RunCampaign falls back to the job's local runner, so a solo boomd is
	// byte-identical to the pre-fabric service.
	reg := metrics.NewRegistry()
	var store *artifact.Cache
	if ef.CacheDir != "" {
		store = artifact.Open(ef.CacheDir)
	}
	coord := fabric.NewCoordinator(fabric.Config{
		Engine:    ef.Engine,
		Store:     store,
		Registry:  reg,
		Lease:     *lease,
		AuditFrac: *audit,
		Log:       logf,
	})
	srv, err := serve.New(serve.Config{
		Engine:     ef.Engine,
		Sampling:   ef.Sampling(),
		QueueDepth: *queueDepth,
		Log:        logf,
		Progress:   !*quiet,
		Registry:   reg,
		Distribute: coord.RunCampaign,
	})
	if err != nil {
		return err
	}
	coord.SetDrainCheck(srv.Draining)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "boomd: listening on %s\n", ln.Addr())

	mux := http.NewServeMux()
	mux.Handle("/v1/fabric/", coord.Handler())
	mux.Handle("/v1/artifacts/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logf("signal received; draining (grace %s)", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logf("grace expired; in-flight sweeps canceled (resubmit after a restart on the same -cache to resume): %v", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	_ = hs.Shutdown(hctx)
	logf("bye")
	return nil
}

// runWorker is -worker mode: one fabric worker polling a coordinator
// until ctx is canceled. What the engine flags mean to a worker — the
// cache as its local tier over the coordinator's store, the split RPC
// timeouts, one -chaos plan arming pipeline and network sites alike — is
// fabric.WorkerConfig.Engine's to say.
func runWorker(ctx context.Context, coordinator, id string, engine core.Engine, logf func(string, ...interface{}), stdout io.Writer) error {
	if coordinator == "" {
		return fmt.Errorf("-worker requires -coordinator URL")
	}
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Coordinator: coordinator,
		ID:          id,
		Engine:      engine,
		Registry:    metrics.NewRegistry(),
		Log:         logf,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "boomd: worker %s polling %s\n", w.ID(), coordinator)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	logf("worker %s: bye", w.ID())
	return nil
}
