package fabric

import (
	"path/filepath"

	"repro/internal/core"
	"repro/internal/journal"
)

// The fabric journal: the fabric's policy over its WAL (internal/journal
// owns the file mechanics). The coordinator — and only the coordinator —
// appends each cell it accepts to one fragment per campaign, headed by the
// campaign fingerprint so a fragment is never replayed into a foreign
// campaign. It is the record of accepted results: bytes that passed (or
// were not sampled for) audit, retracted by a revoke when their producer is
// later quarantined. Workers keep no journal; what a dead worker finished
// is in the store, where the write-through put it before the report.
//
// MergeJournals is the recovery path: a restarted coordinator folds the
// fragment its predecessor left into a done-set and serves those cells
// from it.

// FragmentPath returns the journal fragment location for one campaign
// under the coordinator's cache/journal directory.
func FragmentPath(dir, campaignID string) string {
	return filepath.Join(dir, "fabric-"+core.ShortID(campaignID)+".journal")
}

// openFragment opens the fragment at path for campaignID under
// journal.Open's rule: an existing fragment of this campaign is extended,
// anything else at the path — empty, torn header, foreign campaign — is
// started afresh. Returns nil — inert, journaling disabled: a restart
// reruns those cells — on any open error.
func openFragment(path, campaignID string, warn func(string, ...interface{})) *journal.Writer {
	w, err := journal.Open(path, journal.Record{Ev: "fabric", ID: campaignID}, func(err error) {
		warn("fabric journal disabled after write error (a restart will rerun unjournaled cells): %v", err)
	})
	if err != nil {
		warn("fabric journal disabled: %v", err)
	}
	return w
}

func appendCell(w *journal.Writer, label string, payload []byte) {
	w.Append(journal.Record{Ev: "cell", Task: label, Payload: payload})
}

// revokeCell retracts an earlier cell record (a quarantined worker's
// suspect result): on replay the revoke erases every preceding record for
// the label, so a resume reruns the cell instead of trusting bytes from a
// worker later caught lying. A re-completed cell appends a fresh record
// after the revoke and is trusted normally. Fsynced: a lost revoke would
// resurrect the suspect bytes.
func revokeCell(w *journal.Writer, label string) {
	w.AppendSync(journal.Record{Ev: "revoke", Task: label})
}

// MergeJournals folds the fragment at path into the completed cells of
// campaign wantID, keyed by cell label; measure cells map to their
// canonical payload bytes, profile cells to nil (look the label up with
// the two-result comma form to distinguish "done profile" from "absent").
// A fragment whose header names a different campaign is ignored whole; a
// missing file, torn trailing lines and unparseable records are skipped.
// On a duplicate label the first record wins silently — results are
// deterministic functions of the campaign fingerprint, so duplicates are
// byte-identical and the choice is unobservable — unless a revoke stands
// between them.
func MergeJournals(wantID, path string) map[string][]byte {
	cells := map[string][]byte{}
	recs, _ := journal.Read(path, journal.Record{Ev: "fabric", ID: wantID})
	for _, rec := range recs {
		switch {
		case rec.Task == "":
		case rec.Ev == "revoke":
			delete(cells, rec.Task) // suspect result retracted by quarantine
		case rec.Ev == "cell":
			if _, dup := cells[rec.Task]; !dup {
				cells[rec.Task] = rec.Payload
			}
		}
	}
	return cells
}
