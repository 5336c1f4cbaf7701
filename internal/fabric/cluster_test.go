// Cross-node conformance suite: proves the distributed sweep plane is
// invisible in the results. A campaign sharded across an in-process
// cluster of coordinator + workers (real HTTP between them, real leases,
// real artifact store) must produce results byte-identical to a direct
// single-node Runner.Sweep — pinned against the same golden digests the
// single-node equivalence suite uses (testdata/equivalence_golden.txt),
// so fabric output is anchored to the exact bytes the paper's tables were
// generated from, not merely to "whatever the engine produces today".
// The identity must survive chaos: a worker killed mid-campaign, injected
// lease faults, a coordinator restart resuming from its journal fragment.
package fabric_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// cluster is one in-process coordinator + N workers wired over real HTTP.
type cluster struct {
	coord      *fabric.Coordinator
	coordReg   *metrics.Registry
	storeDir   string // the coordinator's store and journal directory
	ts         *httptest.Server
	workers    []*fabric.Worker
	workerRegs []*metrics.Registry
	workerDirs []string // each worker's cache directory
	cancel     context.CancelFunc
	wg         sync.WaitGroup
}

type clusterOpts struct {
	workers  int
	lease    time.Duration
	storeDir string  // shared across restarts; "" = fresh temp dir
	chaos    string  // coordinator-side injector spec
	audit    float64 // fabric.Config.AuditFrac
	// workerEngines[i] is worker-i's Engine (missing = the zero Engine). Its
	// Chaos plan arms one injector for the worker's pipeline sites, the
	// "fabric.payload/<id>" lying-worker site and — through the
	// faultinject.Transport its HTTP client is wrapped in, scoped to the
	// worker's ID — the network-boundary sites, so both broadcast rules
	// ("fabric.report=error") and per-worker rules
	// ("artifact.remote.get/worker-1=corrupt") stay deterministic.
	workerEngines []core.Engine
}

func startCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	if o.storeDir == "" {
		o.storeDir = t.TempDir()
	}
	c := &cluster{coordReg: metrics.NewRegistry(), storeDir: o.storeDir}
	c.coord = fabric.NewCoordinator(fabric.Config{
		Store:      artifact.Open(o.storeDir),
		Registry:   c.coordReg,
		Lease:      o.lease,
		Poll:       10 * time.Millisecond,
		Engine:     core.Engine{Chaos: o.chaos},
		JournalDir: o.storeDir,
		AuditFrac:  o.audit,
		Log:        t.Logf,
	})
	c.ts = httptest.NewServer(c.coord.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := 0; i < o.workers; i++ {
		reg := metrics.NewRegistry()
		c.workerRegs = append(c.workerRegs, reg)
		var engine core.Engine
		if i < len(o.workerEngines) {
			engine = o.workerEngines[i]
		}
		dir := t.TempDir()
		c.workerDirs = append(c.workerDirs, dir)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Coordinator: c.ts.URL,
			ID:          fmt.Sprintf("worker-%d", i),
			CacheDir:    dir,
			Registry:    reg,
			Engine:      engine,
			Log:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() { c.stop() })
	return c
}

func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
	c.ts.Close()
}

// workerCounterSum sums one counter across every worker registry.
func (c *cluster) workerCounterSum(name string) int64 {
	var n int64
	for _, reg := range c.workerRegs {
		n += reg.Counter(name).Value()
	}
	return n
}

// goldenDigests loads the repo-root equivalence golden into key→digest.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "equivalence_golden.txt"))
	if err != nil {
		t.Fatalf("read equivalence golden: %v", err)
	}
	out := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok {
			out[k] = v
		}
	}
	return out
}

// checkAgainstGolden verifies every simpoint cell digest and the whole
// sweep's canonical JSON digest against the pinned golden values.
func checkAgainstGolden(t *testing.T, sw *core.Sweep) {
	t.Helper()
	golden := goldenDigests(t)
	for _, cfg := range sw.ConfigNames {
		for _, name := range sw.Names {
			res := sw.Results[cfg][name]
			if res == nil || res.Stats == nil {
				t.Errorf("missing result for %s/%s", cfg, name)
				continue
			}
			var buf bytes.Buffer
			if err := boom.EncodeStats(&buf, res.Stats); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("simpoint/%s/%s", cfg, name)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != golden[key] {
				t.Errorf("%s: distributed digest %s, golden %s", key, got, golden[key])
			}
		}
	}
	enc, err := serve.EncodeSweep("equiv", workloads.ScaleTiny, sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != golden["sweepjson"] {
		t.Errorf("sweepjson: distributed digest %s, golden %s", got, golden["sweepjson"])
	}
}

// directBytes runs the campaign on a plain single-node Runner and encodes
// it canonically — the reference the distributed bytes must equal.
func directBytes(t *testing.T, id string, camp core.Campaign) []byte {
	t.Helper()
	r := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestConformanceThreeWorkers is the tentpole conformance matrix: all 11
// workloads × all 3 registered configs sharded across 3 workers, merged
// result pinned to the single-node golden digests cell by cell and as
// canonical sweep JSON.
func TestConformanceThreeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×3 distributed matrix")
	}
	c := startCluster(t, clusterOpts{workers: 3})
	camp := core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny)

	sw, err := c.coord.RunCampaign(context.Background(), "conformance-11x3", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstGolden(t, sw)

	// The whole matrix really was distributed: every cell completed via
	// done-reports, and more than one worker did the work.
	if n := c.coordReg.Counter("fabric.cells_done").Value(); n != int64(11*3+11) {
		t.Errorf("cells_done %d, want %d (11 profile + 33 measure)", n, 11*3+11)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 0 {
		t.Errorf("local_fallback %d: the cluster must not have fallen back", n)
	}
	busy := 0
	for i := range c.workerRegs {
		if c.coordReg.Counter(fmt.Sprintf("fabric.cells_done.worker-%d", i)).Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d worker(s) did any cells; the matrix was not sharded", busy)
	}

	// The status endpoint sees the cluster.
	resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status fabric.StatusReply
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Workers) != 3 {
		t.Errorf("status lists %d workers, want 3", len(status.Workers))
	}
}

// TestConformanceSamplingSpec: a spec-bearing campaign (bbv+mav
// clustering, proportional warm-up) sharded across two workers must
// produce bytes identical to a direct single-node sweep of the same
// campaign — the campaignWire round trip and the workers' WithSampling
// runners reproduce the sampling parameters exactly, so the distributed
// plane stays invisible for non-legacy specs too.
func TestConformanceSamplingSpec(t *testing.T) {
	camp := core.NewCampaign([]string{"sha", "dijkstra"},
		[]boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	camp.Sampling = sampling.Recommended()
	want := directBytes(t, "sampling-2w", camp)

	c := startCluster(t, clusterOpts{workers: 2})
	sw, err := c.coord.RunCampaign(context.Background(), "sampling-2w", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := serve.EncodeSweep("sampling-2w", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("distributed spec-bearing bytes differ from single-node:\n got %s\nwant %s", enc, want)
	}
	if !bytes.Contains(enc, []byte(`"sampling":"features=bbv+mav warmup=5x"`)) {
		t.Fatalf("merged encoding is missing the sampling field: %s", enc)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 0 {
		t.Errorf("local_fallback %d: the cluster must not have fallen back", n)
	}
}

// TestConformanceWorkerKill re-runs the full matrix with a worker killed
// mid-campaign (its context dies between lease grant and execution, so it
// goes silent holding a lease). The coordinator must steal the orphaned
// cell back and the merged result must stay golden — node death degrades
// to latency, never to a wrong or missing cell.
func TestConformanceWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×3 distributed matrix under chaos")
	}
	c := startCluster(t, clusterOpts{workers: 2, lease: time.Second})
	// A third worker with its own context: its task hook kills it the
	// moment it is handed its 2nd cell, after the lease grant but before
	// any work or report — the cell is orphaned under a live lease.
	w0ctx, w0cancel := context.WithCancel(context.Background())
	defer w0cancel()
	var w0tasks atomic.Int64
	w0, err := fabric.NewWorker(fabric.WorkerConfig{
		Coordinator: c.ts.URL,
		ID:          "doomed",
		CacheDir:    t.TempDir(),
		Registry:    metrics.NewRegistry(),
		TaskHook: func(fabric.Task) {
			if w0tasks.Add(1) == 2 {
				w0cancel() // die holding the lease
			}
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w0.Run(w0ctx) }()

	camp := core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "chaos-kill-11x3", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-done // the doomed worker actually died mid-campaign
	checkAgainstGolden(t, sw)

	if n := c.coordReg.Counter("fabric.cells_stolen").Value(); n < 1 {
		t.Errorf("cells_stolen %d: the dead worker's lease was never reclaimed", n)
	}
	if n := c.coordReg.Counter("fabric.cells_failed").Value(); n != 0 {
		t.Errorf("cells_failed %d: a worker kill must not fail cells", n)
	}
	if got := w0tasks.Load(); got != 2 {
		t.Errorf("doomed worker saw %d tasks, want exactly 2 (one done, one orphaned)", got)
	}
}

// TestCoordinatorRestartResume: kill the coordinator mid-campaign, start
// a fresh one over the same journal/store directory, and finish. Cells
// journaled before the crash must not recompute, and the final bytes must
// equal the direct single-node encoding.
func TestCoordinatorRestartResume(t *testing.T) {
	shared := t.TempDir()
	camp := core.NewCampaign([]string{"sha", "qsort"},
		mustConfigs(t, "MediumBOOM", "MegaBOOM"), workloads.ScaleTiny)
	const id = "restart-resume-campaign"

	// Phase A: run until at least 2 cells are done, then kill the
	// coordinator (cancel RunCampaign and tear the cluster down).
	a := startCluster(t, clusterOpts{workers: 2, storeDir: shared})
	actx, acancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if a.coordReg.Counter("fabric.cells_done").Value() >= 2 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		acancel()
	}()
	if _, err := a.coord.RunCampaign(actx, id, camp, nil); err == nil {
		t.Fatal("phase A was supposed to die mid-campaign")
	}
	doneA := a.coordReg.Counter("fabric.cells_done").Value()
	if doneA < 2 {
		t.Fatalf("phase A journaled only %d cells", doneA)
	}
	a.stop()

	// Phase B: new coordinator, same journal + store: the fragment's header
	// names the campaign, so it is replayed.
	b := startCluster(t, clusterOpts{workers: 2, storeDir: shared})
	sw, err := b.coord.RunCampaign(context.Background(), id, camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed := b.coordReg.Counter("fabric.cells_resumed").Value()
	if resumed < 1 {
		t.Errorf("cells_resumed %d: the journal fragment was not replayed", resumed)
	}
	if total := resumed + b.coordReg.Counter("fabric.cells_done").Value(); total != 6 {
		t.Errorf("resumed %d + done %d ≠ 6 cells", resumed, total-resumed)
	}

	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(enc, want) {
		t.Errorf("resumed distributed bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}
}

// TestWarmProfileEconomy: the remote store must extend the paper's
// shared-stage economy across machines. A parametric 4-point DSE campaign
// over one workload on 3 workers must run the profile→select→checkpoint
// chain exactly once cluster-wide (every other worker fetches it), one
// measure per design point — and still produce the direct run's bytes.
func TestWarmProfileEconomy(t *testing.T) {
	cfgs, err := dse.Expand(dse.Spec{
		Base: "MediumBOOM",
		Axes: []dse.Axis{
			{Param: "rob", Values: []string{"48", "64"}},
			{Param: "predictor", Values: []string{"tage", "gshare"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("expanded %d configs, want 4", len(cfgs))
	}
	camp := core.NewCampaign([]string{"sha"}, cfgs, workloads.ScaleTiny)

	c := startCluster(t, clusterOpts{workers: 3})
	sw, err := c.coord.RunCampaign(context.Background(), "dse-economy", camp, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Miss-count accounting across every worker: each profile stage
	// computed exactly once cluster-wide, each measure cell exactly once.
	for _, stage := range []string{"bbv", "select", "checkpoint"} {
		if n := c.workerCounterSum("artifact." + stage + ".miss"); n != 1 {
			t.Errorf("cluster-wide %s misses %d, want exactly 1 (one compute, rest fetched)", stage, n)
		}
	}
	if n := c.workerCounterSum("artifact.measure.miss"); n != 4 {
		t.Errorf("cluster-wide measure misses %d, want 4 (one per design point)", n)
	}
	if n := c.workerCounterSum("artifact.remote.fetch"); n < 1 {
		t.Errorf("remote fetches %d: no worker used the store, economy untested", n)
	}
	if n := c.workerCounterSum("artifact.remote.push"); n < 7 {
		t.Errorf("remote pushes %d, want ≥7 (3 profile stages + 4 measures)", n)
	}

	enc, err := serve.EncodeSweep("dse", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "dse", camp); !bytes.Equal(enc, want) {
		t.Errorf("warm distributed bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}
}

// TestLeaseFaultInjection: the "fabric.lease" chaos site fails lease
// grants; workers back off and retry, and the campaign completes with the
// direct run's exact bytes.
func TestLeaseFaultInjection(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 2, chaos: "11:fabric.lease=errorx5"})
	camp := core.NewCampaign([]string{"sha", "qsort"},
		mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "lease-faults", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.coordReg.Counter("fabric.lease_faults").Value(); n != 5 {
		t.Errorf("lease_faults %d, want the full injected 5", n)
	}
	enc, err := serve.EncodeSweep("lf", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "lf", camp); !bytes.Equal(enc, want) {
		t.Errorf("faulted distributed bytes differ from direct run")
	}
}

// TestWorkerHonoursEngine: a worker runs its cells under every knob of the
// Engine it carries, not under a hand-picked subset. CacheVerify: the
// measure cell's Profile hits the chain the profile cell just left in the
// worker's cache, and every verified hit counts in artifact.verify.ok.
// StageTimeout: a profile stage stalled past the watchdog is cut off, the
// cell is reported failed on every regrant, and the campaign fails.
func TestWorkerHonoursEngine(t *testing.T) {
	camp := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)

	c := startCluster(t, clusterOpts{workers: 1, workerEngines: []core.Engine{{CacheVerify: true}}})
	if _, err := c.coord.RunCampaign(context.Background(), "worker-verify", camp, nil); err != nil {
		t.Fatal(err)
	}
	if n := c.workerCounterSum("artifact.verify.ok"); n < 3 {
		t.Errorf("artifact.verify.ok %d: the measure cell's bbv/select/checkpoint hits were not verified", n)
	}

	c = startCluster(t, clusterOpts{workers: 1, workerEngines: []core.Engine{{
		StageTimeout: 20 * time.Millisecond,
		Chaos:        "1:core.profile/sha=delay:200msx*",
	}}})
	_, err := c.coord.RunCampaign(context.Background(), "worker-watchdog", camp, nil)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Errorf("campaign error %v, want the profile cell failed by the stage watchdog", err)
	}
	if n := c.coordReg.Counter("fabric.cells_failed").Value(); n < 1 {
		t.Errorf("cells_failed %d: the stalled profile cell was never reported failed", n)
	}
}

// TestStatusDraining: while the drain check reports true, the fabric
// status endpoint answers 503 with a Retry-After header and a typed JSON
// error — and recovers to 200 when the drain check clears.
func TestStatusDraining(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0})
	var draining atomic.Bool
	c.coord.SetDrainCheck(draining.Load)

	get := func() *http.Response {
		t.Helper()
		resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status before drain: %s", resp.Status)
	}
	resp.Body.Close()

	draining.Store(true)
	resp = get()
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status code %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining 503 missing Retry-After header")
	}
	if !strings.Contains(string(body[:n]), "draining") {
		t.Errorf("draining body %q lacks a typed error", body[:n])
	}

	draining.Store(false)
	resp = get()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status after drain cleared: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestLocalFallback: a coordinator with zero live workers runs the
// campaign on the job's local runner — a solo boomd is the pre-fabric
// daemon, byte for byte.
func TestLocalFallback(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0})
	camp := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	local := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))
	sw, err := c.coord.RunCampaign(context.Background(), "fallback", camp, local)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 1 {
		t.Errorf("local_fallback %d, want 1", n)
	}
	enc, err := serve.EncodeSweep("fb", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "fb", camp); !bytes.Equal(enc, want) {
		t.Errorf("fallback bytes differ from direct run")
	}
}

func mustConfigs(t *testing.T, names ...string) []boom.Config {
	t.Helper()
	out := make([]boom.Config, len(names))
	for i, n := range names {
		cfg, err := boom.ConfigByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cfg
	}
	return out
}

func jsonDecode(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
