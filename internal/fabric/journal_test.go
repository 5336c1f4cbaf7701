package fabric

import (
	"os"
	"path/filepath"
	"testing"
)

// writeFragment builds a fragment file through the production writer.
func writeFragment(t *testing.T, dir, name, campaignID string, cells map[string][]byte, order []string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w := openFragment(path, campaignID, t.Logf)
	if w == nil {
		t.Fatal("openFragment failed")
	}
	for _, label := range order {
		appendCell(w, label, cells[label])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeDuplicateFirstWins: a cell reported twice (lease stolen, both
// halves accepted across a coordinator restart) resolves silently to the
// first record — determinism makes the duplicates byte-identical in a
// healthy cluster, so the choice is unobservable there; this test makes
// them differ to pin which one wins. Profile cells fold with presence
// semantics: present, nil payload.
func TestMergeDuplicateFirstWins(t *testing.T) {
	p := writeFragment(t, t.TempDir(), "a.journal", "camp-1",
		map[string][]byte{"profile/sha": nil, "measure/medium/sha": []byte("first")},
		[]string{"profile/sha", "measure/medium/sha"})
	w := openFragment(p, "camp-1", t.Logf)
	appendCell(w, "measure/medium/sha", []byte("second"))
	w.Close()
	cells := MergeJournals("camp-1", p)
	if got := string(cells["measure/medium/sha"]); got != "first" || len(cells) != 2 {
		t.Errorf("duplicate resolved to %q among %d cells, want the first record among 2", got, len(cells))
	}
	if payload, ok := cells["profile/sha"]; !ok || payload != nil {
		t.Errorf("profile/sha = %q, %v; want present with nil payload", payload, ok)
	}
}

// TestMergeForeignFragment: a fragment whose header pins a different
// campaign is ignored whole — a fragment never pollinates another
// campaign — and a missing file is an empty done-set, not an error.
func TestMergeForeignFragment(t *testing.T) {
	dir := t.TempDir()
	theirs := writeFragment(t, dir, "theirs.journal", "camp-2",
		map[string][]byte{"measure/medium/sha": []byte("theirs"), "measure/mega/fft": []byte("x")},
		[]string{"measure/medium/sha", "measure/mega/fft"})
	if cells := MergeJournals("camp-1", theirs); len(cells) != 0 {
		t.Errorf("foreign fragment replayed into camp-1: %v", cells)
	}
	if cells := MergeJournals("camp-2", theirs); len(cells) != 2 {
		t.Errorf("the fragment's own campaign replays %d cells, want 2: %v", len(cells), cells)
	}
	if cells := MergeJournals("camp-1", filepath.Join(dir, "nope.journal")); len(cells) != 0 {
		t.Errorf("missing fragment replayed %v", cells)
	}
}

// TestMergeRevoke: a revoke retracts every earlier record of its cell and
// no bystander, while a re-completion journaled after it is trusted
// normally.
func TestMergeRevoke(t *testing.T) {
	path := writeFragment(t, t.TempDir(), "a.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("suspect"), "measure/mega/sha": []byte("fine")},
		[]string{"measure/medium/sha", "measure/mega/sha"})
	w := openFragment(path, "camp-1", t.Logf)
	revokeCell(w, "measure/medium/sha")
	w.Close()
	cells := MergeJournals("camp-1", path)
	if _, ok := cells["measure/medium/sha"]; ok || string(cells["measure/mega/sha"]) != "fine" {
		t.Fatalf("revoked cell survived the replay (or took a bystander with it): %v", cells)
	}

	w = openFragment(path, "camp-1", t.Logf)
	appendCell(w, "measure/medium/sha", []byte("recomputed"))
	w.Close()
	if got := string(MergeJournals("camp-1", path)["measure/medium/sha"]); got != "recomputed" {
		t.Errorf("re-completed cell = %q, want the bytes journaled after the revoke", got)
	}
}

// TestExtendAfterTornTailKeepsCell: a node that crashed mid-append leaves
// a torn last line; the restarted node extends the fragment, and the first
// cell it completes must not be glued onto that fragment and lost.
func TestExtendAfterTornTailKeepsCell(t *testing.T) {
	dir := t.TempDir()
	p := writeFragment(t, dir, "a.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("ok")}, []string{"measure/medium/sha"})
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"cell","task":"measure/mega/sha","pa`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if cells := MergeJournals("camp-1", p); len(cells) != 1 {
		t.Fatalf("merged %d cells from the torn fragment, want the 1 complete one: %v", len(cells), cells)
	}

	w := openFragment(p, "camp-1", t.Logf)
	appendCell(w, "measure/mega/qsort", []byte("after-restart"))
	w.Close()
	cells := MergeJournals("camp-1", p)
	if string(cells["measure/mega/qsort"]) != "after-restart" || string(cells["measure/medium/sha"]) != "ok" {
		t.Fatalf("cell completed after the restart was lost: %v", cells)
	}
}
