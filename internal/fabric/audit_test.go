// Audit & quarantine suite: the trust half of the fabric conformance
// story. Determinism makes every cell's bytes a verifiable claim, so the
// coordinator can catch a worker that executes but lies — these tests
// drive the audit sampling function, the majority-vote arbitration, the
// quarantine/requeue machinery (hand-driven workers over real HTTP, so
// every vote lands in a chosen order), and finally the full 11×3 matrix
// with a lying worker AND network chaos, pinned to the same golden
// digests an honest single node produces.
package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// TestAuditedSampling pins the audit sample down as a pure function of
// (campaign, label, frac): deterministic across calls, empty at frac 0,
// total at frac 1, monotone in frac, and close to frac in expectation.
func TestAuditedSampling(t *testing.T) {
	labels := make([]string, 2000)
	for i := range labels {
		labels[i] = fmt.Sprintf("measure/MediumBOOM/wl-%d", i)
	}
	const id = "sampling-campaign-fingerprint"

	hits := 0
	for _, l := range labels {
		if fabric.Audited(id, l, 0) {
			t.Fatalf("frac 0 audited %s", l)
		}
		if !fabric.Audited(id, l, 1) {
			t.Fatalf("frac 1 skipped %s", l)
		}
		a, b := fabric.Audited(id, l, 0.3), fabric.Audited(id, l, 0.3)
		if a != b {
			t.Fatalf("Audited(%s) not deterministic: %v then %v", l, a, b)
		}
		// The decision is a threshold on one hash value, so a cell audited
		// at a low fraction stays audited at every higher fraction.
		if a && !fabric.Audited(id, l, 0.7) {
			t.Fatalf("%s audited at 0.3 but not 0.7", l)
		}
		if a {
			hits++
		}
	}
	// 2000 draws at p=0.3: mean 600, σ≈20. ±5σ bounds; the inputs are
	// fixed strings, so this is a one-time check, not a flaky one.
	if hits < 500 || hits > 700 {
		t.Errorf("frac 0.3 audited %d/2000 cells; sample badly skewed", hits)
	}

	// Different campaign fingerprints draw different samples.
	same := 0
	for _, l := range labels {
		if fabric.Audited(id, l, 0.3) == fabric.Audited("another-fingerprint", l, 0.3) {
			same++
		}
	}
	if same == len(labels) {
		t.Error("two campaign fingerprints produced identical audit samples")
	}
}

// handWorker drives the coordinator's worker-facing HTTP API by hand, so
// a test controls exactly which "worker" polls, what bytes it reports,
// and in what order — the determinism real concurrent workers can't give.
type handWorker struct {
	t  *testing.T
	ts *httptest.Server
	id string
}

func (h *handWorker) post(path string, body, reply interface{}) {
	h.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.ts.Client().Post(h.ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		h.t.Fatalf("%s %s: %s", h.id, path, resp.Status)
	}
	if reply != nil {
		if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
			h.t.Fatal(err)
		}
	}
}

// join makes the worker known with one poll, which must be granted nothing.
func (h *handWorker) join() {
	h.t.Helper()
	if task := h.poll(); task != nil {
		h.t.Fatalf("%s: joining was granted %s", h.id, task.Label())
	}
}

// poll makes one poll round trip; nil means the coordinator had nothing
// for this worker.
func (h *handWorker) poll() *fabric.Task {
	h.t.Helper()
	var pr struct {
		Task *fabric.Task `json:"task"`
	}
	h.post("/v1/fabric/poll", map[string]string{"worker": h.id}, &pr)
	return pr.Task
}

// pollTask polls until a task is granted (the campaign goroutine may
// still be admitting cells).
func (h *handWorker) pollTask() fabric.Task {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if task := h.poll(); task != nil {
			return *task
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("%s: no task granted within deadline", h.id)
	panic("unreachable")
}

// report sends a successful done-report for task with the given payload.
func (h *handWorker) report(task fabric.Task, payload []byte) {
	h.t.Helper()
	h.post("/v1/fabric/done", struct {
		Worker  string      `json:"worker"`
		Task    fabric.Task `json:"task"`
		OK      bool        `json:"ok"`
		Payload []byte      `json:"payload,omitempty"`
	}{h.id, task, true, payload}, nil)
}

// honestPayload computes a cell's canonical measure bytes the way any
// honest worker would — the ground truth hand-driven tests vote with.
func honestPayload(t *testing.T, camp core.Campaign, wlName, cfgName string) []byte {
	t.Helper()
	r := core.New(core.FlowConfigFor(camp.Scale))
	wl, err := workloads.Build(wlName, camp.Scale)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Profile(context.Background(), wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range camp.Configs {
		if camp.Configs[i].Name != cfgName {
			continue
		}
		res, err := r.Run(context.Background(), p, camp.Configs[i])
		if err != nil {
			t.Fatal(err)
		}
		enc, err := core.EncodeMeasuredResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	t.Fatalf("campaign has no config %q", cfgName)
	panic("unreachable")
}

type campaignResult struct {
	sw  *core.Sweep
	err error
}

func runCampaignAsync(c *cluster, id string, camp core.Campaign) <-chan campaignResult {
	ch := make(chan campaignResult, 1)
	go func() {
		sw, err := c.coord.RunCampaign(context.Background(), id, camp, nil)
		ch <- campaignResult{sw, err}
	}()
	return ch
}

func waitCampaign(t *testing.T, ch <-chan campaignResult) *core.Sweep {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.sw
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not complete")
		panic("unreachable")
	}
}

// TestAuditMajorityVoteQuarantine walks the full arbitration protocol by
// hand: worker-0 reports corrupted measure bytes, the audit holds the
// cell, worker-1's independent derivation diverges (1–1 tie), worker-2's
// tie-break forms a 2–1 majority — worker-0 is quarantined and the
// campaign completes with the honest bytes.
func TestAuditMajorityVoteQuarantine(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0, audit: 1})
	w0 := &handWorker{t, c.ts, "hand-0"}
	w1 := &handWorker{t, c.ts, "hand-1"}
	w2 := &handWorker{t, c.ts, "hand-2"}
	for _, w := range []*handWorker{w0, w1, w2} {
		w.join()
	}

	camp := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	const id = "audit-majority-vote"
	honest := honestPayload(t, camp, "sha", "MediumBOOM")
	corrupt := append([]byte(nil), honest...)
	corrupt[0] ^= 0xff

	res := runCampaignAsync(c, id, camp)

	prof := w0.pollTask()
	if prof.Kind != "profile" {
		t.Fatalf("first grant %s, want the profile cell", prof.Label())
	}
	w0.report(prof, nil)
	meas := w0.pollTask()
	if meas.Kind != "measure" || meas.Fresh {
		t.Fatalf("second grant %+v, want the normal measure cell", meas)
	}
	w0.report(meas, corrupt)

	// The cell is held for audit, and the reporter can never audit itself.
	if n := c.coordReg.Counter("fabric.cells_audited").Value(); n != 1 {
		t.Fatalf("cells_audited %d, want 1", n)
	}
	if task := w0.poll(); task != nil {
		t.Fatalf("reporter was granted %s — a worker must not audit its own bytes", task.Label())
	}

	a1 := w1.pollTask()
	if !a1.Fresh || a1.Label() != meas.Label() {
		t.Fatalf("worker-1 granted %+v, want a Fresh audit of %s", a1, meas.Label())
	}
	w1.report(a1, honest)
	// 1–1 tie: no verdict, and neither voter is eligible for the tie-break.
	if n := c.coordReg.Counter("fabric.workers_quarantined").Value(); n != 0 {
		t.Fatalf("quarantined after a 1-1 tie: divergence alone must not convict")
	}
	if task := w1.poll(); task != nil {
		t.Fatalf("voter was granted %s — one vote per worker", task.Label())
	}

	a2 := w2.pollTask()
	if !a2.Fresh || a2.Label() != meas.Label() {
		t.Fatalf("worker-2 granted %+v, want the tie-break audit of %s", a2, meas.Label())
	}
	w2.report(a2, honest)

	sw := waitCampaign(t, res)
	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(enc, want) {
		t.Errorf("audited campaign bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}

	for name, want := range map[string]int64{
		"fabric.workers_quarantined": 1,
		"fabric.audits_diverged":     1,
		"fabric.audit_grants":        2,
		"fabric.cells_failed":        0,
	} {
		if n := c.coordReg.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}

	// The status surface names the quarantined worker.
	resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	var status fabric.StatusReply
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	for _, ws := range status.Workers {
		if want := ws.ID == "hand-0"; ws.Quarantined != want {
			t.Errorf("status: %s quarantined=%v, want %v", ws.ID, ws.Quarantined, want)
		}
	}
	if task := w0.poll(); task != nil {
		t.Errorf("quarantined worker was granted %s", task.Label())
	}
}

// TestQuarantineRequeuesSuspectCells: quarantining a worker must also
// retract what it got away with — its earlier unaudited measure cells are
// requeued and recomputed by an honest worker, so the final bytes carry
// nothing from the liar.
func TestQuarantineRequeuesSuspectCells(t *testing.T) {
	// Pick a campaign fingerprint whose 0.5-fraction sample audits the sha
	// measure cell but not the qsort one: the liar's qsort result then
	// finalizes unaudited and only the later quarantine can catch it.
	const auditedLabel = "measure/MediumBOOM/sha"
	const plainLabel = "measure/MediumBOOM/qsort"
	var id string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("suspect-requeue-%d", i)
		if fabric.Audited(cand, auditedLabel, 0.5) && !fabric.Audited(cand, plainLabel, 0.5) {
			id = cand
			break
		}
	}

	c := startCluster(t, clusterOpts{workers: 0, audit: 0.5})
	w0 := &handWorker{t, c.ts, "hand-0"}
	w1 := &handWorker{t, c.ts, "hand-1"}
	w2 := &handWorker{t, c.ts, "hand-2"}
	for _, w := range []*handWorker{w0, w1, w2} {
		w.join()
	}

	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	honestSha := honestPayload(t, camp, "sha", "MediumBOOM")
	honestQsort := honestPayload(t, camp, "qsort", "MediumBOOM")
	corrupt := append([]byte(nil), honestSha...)
	corrupt[0] ^= 0xff

	res := runCampaignAsync(c, id, camp)

	// worker-0 does both profiles, lies on the audited sha cell, and slips
	// an honest qsort result through unaudited.
	for i := 0; i < 2; i++ {
		prof := w0.pollTask()
		if prof.Kind != "profile" {
			t.Fatalf("grant %d was %s, want a profile cell", i, prof.Label())
		}
		w0.report(prof, nil)
	}
	measSha := w0.pollTask()
	if measSha.Label() != auditedLabel {
		t.Fatalf("granted %s, want %s", measSha.Label(), auditedLabel)
	}
	w0.report(measSha, corrupt)
	measQsort := w0.pollTask()
	if measQsort.Label() != plainLabel {
		t.Fatalf("granted %s, want %s", measQsort.Label(), plainLabel)
	}
	w0.report(measQsort, honestQsort)
	if n := c.coordReg.Counter("fabric.cells_audited").Value(); n != 1 {
		t.Fatalf("cells_audited %d, want exactly the sampled sha cell", n)
	}

	// Two honest audit votes convict worker-0 …
	a1 := w1.pollTask()
	w1.report(a1, honestSha)
	a2 := w2.pollTask()
	w2.report(a2, honestSha)
	if n := c.coordReg.Counter("fabric.workers_quarantined").Value(); n != 1 {
		t.Fatalf("workers_quarantined %d, want 1", n)
	}
	// … which retracts its unaudited qsort cell and regrants it to an
	// honest worker.
	if n := c.coordReg.Counter("fabric.cells_requeued_suspect").Value(); n != 1 {
		t.Errorf("cells_requeued_suspect %d, want 1 (the unaudited qsort cell)", n)
	}
	if task := w0.poll(); task != nil {
		t.Fatalf("quarantined worker was granted %s", task.Label())
	}
	redo := w1.pollTask()
	if redo.Label() != plainLabel || redo.Fresh {
		t.Fatalf("regrant was %+v, want a normal regrant of %s", redo, plainLabel)
	}
	w1.report(redo, honestQsort)

	sw := waitCampaign(t, res)
	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(enc, want) {
		t.Errorf("requeued campaign bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}
}

// TestAuditCleanPass: auditing an honest cluster is pure overhead — every
// sampled cell's independent re-derivation matches, nobody is
// quarantined, and the bytes stay the direct run's.
func TestAuditCleanPass(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 3, audit: 1})
	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "audit-clean", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.coordReg.Counter("fabric.audits_passed").Value(); n != 2 {
		t.Errorf("audits_passed %d, want 2 (every measure cell sampled at frac 1)", n)
	}
	for _, name := range []string{"fabric.workers_quarantined", "fabric.audits_diverged", "fabric.cells_failed"} {
		if n := c.coordReg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d, want 0 on an honest cluster", name, n)
		}
	}
	enc, err := serve.EncodeSweep("ac", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "ac", camp); !bytes.Equal(enc, want) {
		t.Errorf("audited bytes differ from direct run")
	}
}

// TestConformanceNetworkChaos is the trust-layer tentpole (not -short
// gated, so part of `go test ./...`): the full 11×3 matrix on a 3-worker cluster where
// worker-0 corrupts every measure payload it reports AND every worker's
// network is hostile — stalled polls, 5xx'd reports and heartbeats,
// corrupted and truncated artifact-store responses. The campaign must
// still complete with zero failed cells, quarantine the liar, recompute
// its cells elsewhere, and land byte-identical to the pinned golden
// digests.
func TestConformanceNetworkChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×3 distributed matrix under network chaos + audit")
	}
	const hostileNet = "fabric.poll=delay:20msx3," +
		"fabric.report=errorx2," +
		"fabric.heartbeat=errorx1," +
		"artifact.remote.get=corrupt:4x1," +
		"artifact.remote.get=truncate#1x1," +
		"artifact.remote.put=errorx1"
	c := startCluster(t, clusterOpts{
		workers: 3,
		audit:   1,
		workerEngines: []core.Engine{
			{Chaos: "23:fabric.payload/worker-0=corruptx*," + hostileNet},
			{Chaos: "23:" + hostileNet},
			{Chaos: "23:" + hostileNet},
		},
	})
	camp := core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "chaos-audit-11x3", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstGolden(t, sw)

	if n := c.coordReg.Counter("fabric.workers_quarantined").Value(); n != 1 {
		t.Errorf("workers_quarantined %d, want exactly the lying worker-0", n)
	}
	if n := c.coordReg.Counter("fabric.cells_failed").Value(); n != 0 {
		t.Errorf("cells_failed %d: chaos must degrade to retries, never to failed cells", n)
	}
	if n := c.coordReg.Counter("fabric.audits_diverged").Value(); n < 1 {
		t.Errorf("audits_diverged %d: the corrupted payloads were never caught", n)
	}
	resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	var status fabric.StatusReply
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	for _, ws := range status.Workers {
		if want := ws.ID == "worker-0"; ws.Quarantined != want {
			t.Errorf("status: %s quarantined=%v, want %v", ws.ID, ws.Quarantined, want)
		}
	}
}
