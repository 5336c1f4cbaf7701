package fabric

import (
	"path/filepath"

	"repro/internal/journal"
)

// Fabric journal fragments: the fabric's policy over its WAL
// (internal/journal owns the file mechanics). Every node — the
// coordinator as cells are reported done, each worker as it finishes cells
// locally — appends completed cells to its own per-campaign fragment,
// headed by the campaign fingerprint so a fragment is never merged into a
// foreign campaign.
//
// MergeJournals is the recovery path: a restarted coordinator (or an
// operator gathering fragments off dead workers' disks) merges any number
// of fragments into one done-set. Duplicate cells across fragments —
// e.g. a cell a slow worker finished after its lease was stolen and a
// second worker finished too — resolve silently to the first occurrence:
// results are deterministic functions of the campaign fingerprint, so in
// a healthy cluster duplicates are byte-identical and the choice is
// unobservable.

// FragmentPath returns the journal fragment location for one campaign
// under a node's cache/journal directory.
func FragmentPath(dir, campaignID string) string {
	short := campaignID
	if len(short) > 12 {
		short = short[:12]
	}
	return filepath.Join(dir, "fabric-"+short+".journal")
}

// openFragment opens the fragment at path for campaignID under
// journal.Open's extend rule: an existing fragment of this campaign is
// extended, anything else at the path — empty, torn header, foreign
// campaign — is started afresh. Returns nil — inert, journaling disabled:
// a restart reruns those cells — on any open error.
func openFragment(path, campaignID string, warn func(string, ...interface{})) *journal.Writer {
	w, err := journal.Open(path, journal.Record{Ev: "fabric", ID: campaignID}, true, func(err error) {
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
// suspect result): on merge the revoke erases every preceding record for
// the label, so a resume reruns the cell instead of trusting bytes from a
// worker later caught lying. A re-completed cell appends a fresh record
// after the revoke and is trusted normally. Fsynced: a lost revoke would
// resurrect the suspect bytes.
func revokeCell(w *journal.Writer, label string) {
	w.AppendSync(journal.Record{Ev: "revoke", Task: label})
}

// MergeJournals merges any number of fragment files into the union of
// completed cells for campaign wantID, keyed by cell label; measure cells
// map to their canonical payload bytes, profile cells to nil (look the
// label up with the two-result comma form to distinguish "done profile"
// from "absent"). Fragments whose header names a different campaign are
// ignored whole; missing files, torn trailing lines and unparseable
// records are skipped. On a duplicate label the first occurrence — in
// path order, then file order — wins silently.
func MergeJournals(wantID string, paths ...string) map[string][]byte {
	cells := map[string][]byte{}
	for _, p := range paths {
		recs, _ := journal.Read(p, journal.Record{Ev: "fabric", ID: wantID})
		for _, rec := range recs {
			switch {
			case rec.Task == "":
			case rec.Ev == "revoke":
				delete(cells, rec.Task) // suspect result retracted by quarantine
			case rec.Ev == "cell":
				if _, dup := cells[rec.Task]; !dup { // first fingerprint wins silently
					cells[rec.Task] = rec.Payload
				}
			}
		}
	}
	return cells
}
