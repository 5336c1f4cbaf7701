package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
)

// TestLoadJournalFold: the sweep's resume policy over the shared WAL — only
// "done" records make a task resumable ("start" without "done" is a task
// that was in flight; a torn "done" never counts), "fail" records are
// counted, and a journal headed by another campaign yields nothing. The
// reader's own mechanics are tested in internal/journal.
func TestLoadJournalFold(t *testing.T) {
	r := New(DefaultFlowConfig())
	id := r.CampaignID(tcamp([]string{"sha", "bitcount"}, []boom.Config{boom.MediumBOOM()}))

	path := JournalPath(t.TempDir())
	body := `{"ev":"sweep","id":"` + id + `"}
{"ev":"start","task":"profile/sha"}
{"ev":"done","task":"profile/sha","ns":7}
{"ev":"start","task":"profile/qsort"}
{"ev":"fail","task":"profile/qsort","err":"boom"}
{"ev":"start","task":"profile/bitcount"}
{"ev":"done","task":"profile/bitcoun` // torn: process died mid-write
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	done, failed := loadJournal(path, id)
	if len(done) != 1 || !done["profile/sha"] || failed != 1 {
		t.Errorf("done=%v failed=%d, want exactly profile/sha done and one failure", done, failed)
	}
	if done, failed := loadJournal(path, "cafef00d"); len(done) != 0 || failed != 0 {
		t.Errorf("foreign campaign replayed %d done, %d failed", len(done), failed)
	}
	if done, _ := loadJournal(filepath.Join(t.TempDir(), "absent"), id); len(done) != 0 {
		t.Error("missing journal must yield an empty set")
	}
}

// TestSweepIDSensitivity: any campaign input drift — workload set, config
// set, flow parameters, scale — must change the fingerprint.
func TestSweepIDSensitivity(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	base := New(DefaultFlowConfig()).CampaignID(tcamp(names, cfgs))

	if got := New(DefaultFlowConfig()).CampaignID(tcamp(names, cfgs)); got != base {
		t.Error("identical campaign must fingerprint identically")
	}
	if got := New(DefaultFlowConfig()).CampaignID(tcamp([]string{"sha"}, cfgs)); got == base {
		t.Error("workload-set drift not detected")
	}
	if got := New(DefaultFlowConfig()).CampaignID(tcamp(names, []boom.Config{boom.MegaBOOM()})); got == base {
		t.Error("config-set drift not detected")
	}
	fc := DefaultFlowConfig()
	fc.WarmupInsts++
	if got := New(fc).CampaignID(tcamp(names, cfgs)); got == base {
		t.Error("flow-parameter drift not detected")
	}
}

// TestJournalWrittenDuringSweep: with a cache attached, a sweep leaves a
// complete journal (header + start/done per task) at JournalPath.
func TestJournalWrittenDuringSweep(t *testing.T) {
	dir := t.TempDir()
	r := New(DefaultFlowConfig(), WithCache(dir))
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	if _, err := r.Sweep(context.Background(), tcamp(names, cfgs)); err != nil {
		t.Fatal(err)
	}
	done, failed := loadJournal(JournalPath(dir), r.CampaignID(tcamp(names, cfgs)))
	if failed != 0 {
		t.Errorf("clean sweep journaled %d failures", failed)
	}
	for _, task := range []string{"profile/sha", "measure/MediumBOOM/sha"} {
		if !done[task] {
			t.Errorf("journal missing done record for %s (have %v)", task, done)
		}
	}
	if len(done) != 2 {
		t.Errorf("journal lists %d done tasks, want 2", len(done))
	}
}

// TestJournalWriteErrorSurfaced: a journal whose file rejects writes (a
// symlink to /dev/full, which fails every write with ENOSPC) must not
// silently drop records, and must not fail the sweep either. The first
// failed write increments core.sweep.journal_write_errors and warns
// exactly once; the journal is then inert, so the failure degrades to "no
// journal" instead of a half-written one that -resume would half-trust.
func TestJournalWriteErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", JournalPath(dir)); err != nil {
		t.Skipf("cannot stand in a full disk: %v", err)
	}
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skipf("no /dev/full on this platform: %v", err)
	} else {
		f.Close()
	}
	reg := metrics.NewRegistry()
	var warns int
	r := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg), WithParallelism(1),
		WithProgress(func(msg string) {
			if strings.Contains(msg, "sweep journal disabled after write error") {
				warns++
			}
		}))
	sw, err := r.Sweep(context.Background(), tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()}))
	if err != nil || sw.Results["MediumBOOM"]["sha"] == nil {
		t.Fatalf("a dead journal must not fail the sweep: %v", err)
	}
	if got := reg.Counter("core.sweep.journal_write_errors").Value(); got != 1 {
		t.Errorf("core.sweep.journal_write_errors = %d, want 1 (first error only)", got)
	}
	if warns != 1 {
		t.Errorf("warned %d times, want exactly 1", warns)
	}
}

// TestJournalHeaderDurable: openSweepJournal must put the campaign header
// on disk (fsynced) before the sweep starts, so the journal's identity
// survives a crash that follows immediately.
func TestJournalHeaderDurable(t *testing.T) {
	dir := t.TempDir()
	r := New(DefaultFlowConfig(), WithCache(dir))
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	jn, _ := r.openSweepJournal(tcamp(names, cfgs))
	if jn == nil {
		t.Fatal("journal not opened")
	}
	defer jn.Close()
	done, _ := loadJournal(JournalPath(dir), r.CampaignID(tcamp(names, cfgs)))
	if done == nil {
		t.Fatal("header not readable from disk right after open")
	}
}
