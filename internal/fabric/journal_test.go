package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestMergeInterleaved: fragments from two workers that each finished a
// disjoint half of a campaign merge to the union, payloads intact.
func TestMergeInterleaved(t *testing.T) {
	dir := t.TempDir()
	a := writeFragment(t, dir, "a.journal", "camp-1", map[string][]byte{
		"profile/sha":        nil,
		"measure/medium/sha": []byte("sha@medium"),
		"measure/mega/qsort": []byte("qsort@mega"),
	}, []string{"profile/sha", "measure/medium/sha", "measure/mega/qsort"})
	b := writeFragment(t, dir, "b.journal", "camp-1", map[string][]byte{
		"profile/qsort":        nil,
		"measure/mega/sha":     []byte("sha@mega"),
		"measure/medium/qsort": []byte("qsort@medium"),
	}, []string{"profile/qsort", "measure/mega/sha", "measure/medium/qsort"})

	cells := MergeJournals("camp-1", a, b)
	if len(cells) != 6 {
		t.Fatalf("merged %d cells, want 6: %v", len(cells), cells)
	}
	for label, want := range map[string]string{
		"measure/medium/sha":   "sha@medium",
		"measure/mega/sha":     "sha@mega",
		"measure/medium/qsort": "qsort@medium",
		"measure/mega/qsort":   "qsort@mega",
	} {
		if got, ok := cells[label]; !ok || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", label, got, ok, want)
		}
	}
	// Profile cells merge with presence semantics: present, nil payload.
	for _, label := range []string{"profile/sha", "profile/qsort"} {
		if payload, ok := cells[label]; !ok || payload != nil {
			t.Errorf("%s = %q, %v; want present with nil payload", label, payload, ok)
		}
	}
}

// TestMergeDuplicateFirstWins: a cell finished by two workers (lease
// stolen, both completed) resolves silently to the first fragment's
// payload — determinism makes the duplicates byte-identical in a healthy
// cluster, so the choice is unobservable there; this test makes them
// differ to pin which one wins.
func TestMergeDuplicateFirstWins(t *testing.T) {
	dir := t.TempDir()
	a := writeFragment(t, dir, "a.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("first")},
		[]string{"measure/medium/sha"})
	b := writeFragment(t, dir, "b.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("second")},
		[]string{"measure/medium/sha"})
	cells := MergeJournals("camp-1", a, b)
	if got := string(cells["measure/medium/sha"]); got != "first" {
		t.Errorf("duplicate resolved to %q, want first occurrence", got)
	}
	// And in the opposite path order the other fragment wins.
	cells = MergeJournals("camp-1", b, a)
	if got := string(cells["measure/medium/sha"]); got != "second" {
		t.Errorf("reversed order resolved to %q, want %q", got, "second")
	}
}

// TestMergeForeignFragment: a fragment whose header pins a different
// campaign is ignored whole — fragments never cross-pollinate campaigns.
func TestMergeForeignFragment(t *testing.T) {
	dir := t.TempDir()
	ours := writeFragment(t, dir, "ours.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("ours")},
		[]string{"measure/medium/sha"})
	theirs := writeFragment(t, dir, "theirs.journal", "camp-2",
		map[string][]byte{"measure/medium/sha": []byte("theirs"), "measure/mega/fft": []byte("x")},
		[]string{"measure/medium/sha", "measure/mega/fft"})

	cells := MergeJournals("camp-1", ours, theirs)
	if len(cells) != 1 || string(cells["measure/medium/sha"]) != "ours" {
		t.Errorf("merge polluted by foreign fragment: %v", cells)
	}
	// Missing files are skipped, not fatal.
	cells = MergeJournals("camp-1", filepath.Join(dir, "nope.journal"), ours)
	if len(cells) != 1 {
		t.Errorf("missing fragment path broke the merge: %v", cells)
	}
}

// TestMergeRevoke: a revoke retracts every earlier record of its cell —
// across fragments, since the suspect bytes may have reached more than
// one — while a re-completion journaled after it is trusted normally.
func TestMergeRevoke(t *testing.T) {
	dir := t.TempDir()
	a := writeFragment(t, dir, "a.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("suspect"), "measure/mega/sha": []byte("fine")},
		[]string{"measure/medium/sha", "measure/mega/sha"})
	path := filepath.Join(dir, "b.journal")
	w := openFragment(path, "camp-1", t.Logf)
	appendCell(w, "measure/medium/sha", []byte("suspect"))
	revokeCell(w, "measure/medium/sha")
	w.Close()
	cells := MergeJournals("camp-1", a, path)
	if _, ok := cells["measure/medium/sha"]; ok || string(cells["measure/mega/sha"]) != "fine" {
		t.Fatalf("revoked cell survived the merge (or took a bystander with it): %v", cells)
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

// TestWorkerFragmentHeaderChecked: whatever a worker finds at its fragment
// path — nothing, an empty file, a torn header, another campaign's
// fragment (FragmentPath keys on a 12-character prefix) — the cells it
// journals must be recoverable; and a fragment that is its own is
// extended, not truncated.
func TestWorkerFragmentHeaderChecked(t *testing.T) {
	const id = "0123456789abcdef0123"
	for name, body := range map[string]string{
		"absent":      "",
		"empty":       "",
		"torn header": `{"ev":"fabric","id":"0123456`,
		"foreign":     `{"ev":"fabric","id":"0123456789abffffffff"}` + "\n" + `{"ev":"cell","task":"profile/fft"}` + "\n",
		"own":         `{"ev":"fabric","id":"` + id + `"}` + "\n" + `{"ev":"cell","task":"profile/fft"}` + "\n",
	} {
		dir := t.TempDir()
		if name != "absent" {
			if err := os.WriteFile(FragmentPath(dir, id), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := NewWorker(WorkerConfig{Coordinator: "127.0.0.1:0", CacheDir: dir, Log: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		appendCell(w.fragmentFor(id), "measure/medium/sha", []byte("mine"))
		w.fragmentFor(id).Close()
		cells := MergeJournals(id, FragmentPath(dir, id))
		if string(cells["measure/medium/sha"]) != "mine" {
			t.Errorf("%s: journaled cell not recoverable: %v", name, cells)
		}
		if _, kept := cells["profile/fft"]; kept != (name == "own") {
			t.Errorf("%s: earlier cell kept=%v", name, kept)
		}
	}
}

// openFiles counts this process's open descriptors on files under dir.
func openFiles(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestWorkerHoldsOneFragmentOpen: a long-lived worker serving many
// campaigns keeps only the current campaign's fragment open — not one
// descriptor per campaign it has ever seen — and every cell it journals
// survives the close/reopen when a campaign comes back.
func TestWorkerHoldsOneFragmentOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWorker(WorkerConfig{Coordinator: "127.0.0.1:0", CacheDir: dir, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "cccccccccccccccc"}
	want := map[string][]string{}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			label := fmt.Sprintf("measure/cfg%d/sha", round)
			appendCell(w.fragmentFor(id), label, []byte(id+label))
			want[id] = append(want[id], label)
			if n := openFiles(t, dir); n != 1 {
				t.Fatalf("round %d, campaign %s: %d fragments open, want 1", round, id, n)
			}
		}
	}
	for _, id := range ids {
		cells := MergeJournals(id, FragmentPath(dir, id))
		if len(cells) != len(want[id]) {
			t.Errorf("campaign %s: merged %d cells, want %d", id, len(cells), len(want[id]))
		}
		for _, label := range want[id] {
			if string(cells[label]) != id+label {
				t.Errorf("campaign %s: cell %s lost across the close/reopen: %q", id, label, cells[label])
			}
		}
	}
}
