// One campaign in flight, one journal with a reader: the properties the
// single-run coordinator and the journal-less worker rest on. Only the
// coordinator journals, so what a dead worker finished must come back from
// the store; a worker carries one campaign's state, so campaigns through
// one worker must not bleed into each other; the coordinator holds one run,
// so a second concurrent campaign is refused, not interleaved; and a
// cluster whose last worker dies mid-campaign falls back to the local
// runner instead of waiting for a poll that never comes.
package fabric_test

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// fragmentsUnder lists every fabric journal fragment below dir.
func fragmentsUnder(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if ok, _ := filepath.Match("fabric-*.journal", d.Name()); ok {
				found = append(found, path)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

func encodeSweep(t *testing.T, id string, camp core.Campaign, sw *core.Sweep) []byte {
	t.Helper()
	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestStoreIsTheRecoveryPath: a worker keeps no journal, and needs none.
// Worker A finishes a campaign against coordinator 1; then both are gone,
// and so is the coordinator's fragment, so coordinator 2 knows nothing and
// every report A ever made is lost. A fresh worker B with an empty cache
// still finishes the campaign without simulating one instruction: every
// artifact A produced went through to the store before A reported it.
func TestStoreIsTheRecoveryPath(t *testing.T) {
	shared := t.TempDir()
	camp := core.NewCampaign([]string{"sha", "qsort"},
		mustConfigs(t, "MediumBOOM", "MegaBOOM"), workloads.ScaleTiny)
	const id = "store-is-the-recovery-path"
	const cells = 6 // 2 profile + 4 measure

	a := startCluster(t, clusterOpts{workers: 1, storeDir: shared})
	if _, err := a.coord.RunCampaign(context.Background(), id, camp, nil); err != nil {
		t.Fatal(err)
	}
	a.stop()
	if frags := fragmentsUnder(t, a.workerDirs[0]); len(frags) != 0 {
		t.Errorf("worker A left journal fragments %v: only the coordinator journals", frags)
	}
	frag := fabric.FragmentPath(shared, id)
	if n := len(fabric.MergeJournals(id, frag)); n != cells {
		t.Fatalf("coordinator 1's fragment replays %d cells, want %d", n, cells)
	}
	if err := os.Remove(frag); err != nil {
		t.Fatal(err)
	}

	b := startCluster(t, clusterOpts{workers: 1, storeDir: shared})
	sw, err := b.coord.RunCampaign(context.Background(), id, camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.coordReg.Counter("fabric.cells_resumed").Value(); n != 0 {
		t.Errorf("cells_resumed %d with the fragment deleted", n)
	}
	if n := b.coordReg.Counter("fabric.cells_done").Value(); n != cells {
		t.Errorf("cells_done %d, want all %d re-leased to worker B", n, cells)
	}
	for _, name := range []string{"boom.retired", "sim.insts"} {
		if n := b.workerCounterSum(name); n != 0 {
			t.Errorf("worker B counted %s = %d: a cell A finished was recomputed, not recovered from the store", name, n)
		}
	}
	if n := b.workerCounterSum("artifact.remote.fetch"); n < cells {
		t.Errorf("worker B fetched %d artifact(s) from the store, want ≥ %d", n, cells)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(encodeSweep(t, id, camp, sw), want) {
		t.Error("bytes recovered from the store differ from the direct run's")
	}
}

// TestSequentialCampaignsOneWorker: two different campaigns back to back
// through one coordinator and one long-lived worker are each byte-identical
// to their direct runs, and the worker ends up holding the second
// campaign's spec and Runners, not one set per campaign it has seen.
func TestSequentialCampaignsOneWorker(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 1})
	for _, tc := range []struct {
		id   string
		camp core.Campaign
	}{
		{"sequential-first", core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)},
		{"sequential-second", core.NewCampaign([]string{"qsort", "sha"}, mustConfigs(t, "MegaBOOM"), workloads.ScaleTiny)},
	} {
		sw, err := c.coord.RunCampaign(context.Background(), tc.id, tc.camp, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if want := directBytes(t, tc.id, tc.camp); !bytes.Equal(encodeSweep(t, tc.id, tc.camp, sw), want) {
			t.Errorf("%s: distributed bytes differ from the direct run's", tc.id)
		}
	}
	c.stop()
	if got := c.workers[0].HeldCampaign(); got != "sequential-second" {
		t.Errorf("worker holds campaign %q, want the second campaign's state only", got)
	}
}

// campaignsInStatus reads the IDs the status endpoint lists as in flight.
func campaignsInStatus(t *testing.T, c *cluster) []string {
	t.Helper()
	resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	var status fabric.StatusReply
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, cs := range status.Campaigns {
		ids = append(ids, cs.ID)
	}
	return ids
}

// TestSecondCampaignRefused: while one campaign is in flight a second
// RunCampaign is refused with an error naming the first, which carries on
// undisturbed — same cells, same lease, same bytes.
func TestSecondCampaignRefused(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0})
	w := &handWorker{t, c.ts, "hand-0"}
	w.register()
	first := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	second := core.NewCampaign([]string{"qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	const firstID, secondID = "first-camp", "second-camp" // short enough to be logged whole

	res := runCampaignAsync(c, firstID, first)
	prof := w.pollTask() // a granted cell: the first campaign is admitted
	if prof.Campaign != firstID || prof.Kind != "profile" {
		t.Fatalf("first grant %+v, want the first campaign's profile cell", prof)
	}

	sw, err := c.coord.RunCampaign(context.Background(), secondID, second, nil)
	if sw != nil || err == nil || !strings.Contains(err.Error(), "in flight") || !strings.Contains(err.Error(), firstID) {
		t.Fatalf("concurrent RunCampaign = %v, %v; want a refusal naming %s", sw, err, firstID)
	}
	if got := campaignsInStatus(t, c); len(got) != 1 || got[0] != firstID {
		t.Errorf("status lists campaigns %v, want exactly the one in flight", got)
	}
	if frags := fragmentsUnder(t, c.storeDir); len(frags) != 1 {
		t.Errorf("fragments on disk %v, want only the first campaign's: a refusal touches nothing", frags)
	}

	// The lease granted before the refusal is still good.
	w.report(prof, nil)
	meas := w.pollTask()
	if meas.Campaign != firstID || meas.Kind != "measure" {
		t.Fatalf("second grant %+v, want the first campaign's measure cell", meas)
	}
	w.report(meas, honestPayload(t, first, "sha", "MediumBOOM"))
	if want := directBytes(t, firstID, first); !bytes.Equal(encodeSweep(t, firstID, first, waitCampaign(t, res)), want) {
		t.Error("first campaign's bytes differ from the direct run's after the refusal")
	}
	if n := c.coordReg.Counter("fabric.cells_stolen").Value(); n != 0 {
		t.Errorf("cells_stolen %d: the refusal disturbed the first campaign's leases", n)
	}
	if got := campaignsInStatus(t, c); len(got) != 0 {
		t.Errorf("status still lists %v after the campaign retired", got)
	}
}

// TestLastWorkerDiesFallsBackLocal: the only worker takes a cell and falls
// silent. Nobody is left to poll, so no lease is ever reclaimed — the
// coordinator itself must notice the cluster is empty and finish the
// campaign on the local runner, byte-identically. Under a deadline: before
// the liveness re-check this waited forever.
func TestLastWorkerDiesFallsBackLocal(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0, lease: 50 * time.Millisecond})
	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	const id = "last-worker-dies"
	local := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := &handWorker{t, c.ts, "doomed"}
	w.register()
	res := make(chan campaignResult, 1)
	go func() {
		sw, err := c.coord.RunCampaign(ctx, id, camp, local)
		res <- campaignResult{sw, err}
	}()
	w.pollTask() // holds a lease, and is never heard from again

	r := <-res
	if r.err != nil {
		t.Fatalf("campaign with a dead last worker: %v", r.err)
	}
	for _, cfg := range r.sw.ConfigNames {
		for _, name := range r.sw.Names {
			if r.sw.Results[cfg][name] == nil {
				t.Errorf("missing cell %s/%s", cfg, name)
			}
		}
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 1 {
		t.Errorf("local_fallback %d, want 1", n)
	}
	if n := c.coordReg.Counter("fabric.cells_leased").Value(); n != 1 {
		t.Errorf("cells_leased %d, want 1: the fallback must come after admission, not instead of it", n)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(encodeSweep(t, id, camp, r.sw), want) {
		t.Error("fallback bytes differ from the direct run's")
	}
}
