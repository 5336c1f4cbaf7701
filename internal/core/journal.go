package core

import (
	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/journal"
	"repro/internal/sampling"
)

// This file is the sweep's crash-resume policy over the shared WAL
// (internal/journal, which owns the file mechanics). Every sweep task (one
// workload profile, one (workload, config) measurement) writes a "start"
// record before it runs and a "done" or "fail" record after.
//
// The journal is the bookkeeping layer over the content-addressed cache:
// the cache holds the results, the journal holds the campaign's progress.
// On -resume, tasks with a "done" record are replayed straight through
// their cache artifacts (no recomputation); tasks that were in flight or
// failed run again. The header record pins the sweep's identity — workload
// set, configurations, flow parameters, scale, sampling spec — so a journal
// is never replayed against a different campaign.

// CampaignID fingerprints a campaign under this Runner's flow parameters:
// the exact workload list, configuration list, flow parameters, scale and
// effective sampling spec. It is the one identity of a run: the sweep
// journal's header, and — in the serving layer (internal/serve) — the job
// and dedupe ID, so duplicate submissions of one campaign collapse onto one
// job. Reuses the artifact cache's canonical encoding, so any drift in any
// input — including any single field of any design point, which is how
// parametric axes (internal/dse) become part of the identity — yields a
// different ID and a stale journal is ignored rather than replayed.
//
// The encoded shape below (an anonymous struct, these field names and
// types, the schema version) is pinned by the fingerprint compatibility
// suite. Do not rename fields, reorder them, or name the struct (the
// canonical encoding hashes the type name, and an anonymous struct encodes
// as ""); a deliberate change bumps sweepSchema, which orphans journals
// and boomd job IDs but — like every cache key — moves no result byte.
func (r *Runner) CampaignID(c Campaign) string {
	return artifact.NewKey("sweep", sweepSchema, struct {
		Names    []string
		Configs  []boom.Config
		Flow     FlowConfig
		Scale    int
		Sampling sampling.Spec
	}{c.Workloads, c.Configs, r.fc, int(c.Scale), r.effectiveSpec(c)}).Hex()
}

// loadJournal returns the set of tasks with a "done" record in the journal
// at path, provided its header matches wantID. A missing file, a foreign
// campaign, or an unreadable header all return an empty set — the sweep
// then simply starts from scratch.
func loadJournal(path, wantID string) (done map[string]bool, prevFailed int) {
	recs, ok := journal.Read(path, journal.Record{Ev: "sweep", ID: wantID})
	if !ok {
		return nil, 0
	}
	done = map[string]bool{}
	for _, rec := range recs {
		switch rec.Ev {
		case "done":
			done[rec.Task] = true
		case "fail":
			prevFailed++
		}
	}
	return done, prevFailed
}

// openSweepJournal prepares the WAL for one Sweep call. Without a cache
// the journal is disabled (nil, empty set). With WithResume, a matching
// prior journal yields the done-set and the file is extended in place;
// otherwise the file is truncated and a fresh header written.
func (r *Runner) openSweepJournal(camp Campaign) (*journal.Writer, map[string]bool) {
	if r.cache == nil {
		return nil, nil
	}
	id := r.CampaignID(camp)
	path := JournalPath(r.cache.Dir())
	var done map[string]bool
	if r.resume {
		var prevFailed int
		done, prevFailed = loadJournal(path, id)
		if len(done) > 0 || prevFailed > 0 {
			r.note("resume: journal lists %d finished task(s), %d failed — rerunning the rest", len(done), prevFailed)
		}
	}
	jn, err := journal.Open(path, journal.Record{Ev: "sweep", ID: id}, len(done) > 0, func(err error) {
		r.reg.Counter("core.sweep.journal_write_errors").Inc()
		r.note("sweep journal disabled after write error (a later -resume will rerun unjournaled tasks): %v", err)
	})
	if err != nil {
		r.note("journal disabled: %v", err)
	}
	return jn, done
}

// JournalPath returns the sweep journal location for a cache directory
// (diagnostics and tests).
func JournalPath(cacheDir string) string {
	return filepath.Join(cacheDir, "sweep.journal")
}
