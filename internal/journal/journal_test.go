package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var (
	sweepHeader  = Record{Ev: "sweep", ID: "19b9181fede44501869b1c4d01e5c4e0e48474bbc1391f8d9eaca5e9b3b5743f"}
	fabricHeader = Record{Ev: "fabric", ID: "0123456789abcdef0123"}
)

// fabricDialect is a fragment exactly as every build has put it on disk,
// one line of every record kind. sweepDialect is the retired single-node
// sweep journal: no writer produces it any more, so to the reader it is a
// foreign dialect (its "ns"/"err" fields are unknown) that must still be
// handled like any other input.
const (
	sweepDialect = `{"ev":"sweep","id":"19b9181fede44501869b1c4d01e5c4e0e48474bbc1391f8d9eaca5e9b3b5743f"}
{"ev":"start","task":"profile/sha"}
{"ev":"done","task":"profile/sha","ns":12345}
{"ev":"fail","task":"measure/MediumBOOM/qsort","err":"measure qsort on MediumBOOM: injected \"chaos\""}
`
	fabricDialect = `{"ev":"fabric","id":"0123456789abcdef0123"}
{"ev":"cell","task":"profile/sha"}
{"ev":"cell","task":"measure/MediumBOOM/sha","payload":"Y2Fub25pY2FsIAAB/yBtZWFzdXJlIGJ5dGVz"}
{"ev":"revoke","task":"measure/MediumBOOM/sha"}
`
)

func writeFile(t testing.TB, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.journal")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustOpen(t testing.TB, path string, header Record) *Writer {
	t.Helper()
	w, err := Open(path, header, func(err error) { t.Errorf("journal write error: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDialectsByteForByte: the on-disk dialect parses through Read, and
// Record writes it back byte-for-byte — no fragment on disk changes.
func TestDialectsByteForByte(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header Record
		body   string
		want   []Record
	}{
		{"fabric", fabricHeader, fabricDialect, []Record{
			{Ev: "cell", Task: "profile/sha"},
			{Ev: "cell", Task: "measure/MediumBOOM/sha", Payload: []byte("canonical \x00\x01\xff measure bytes")},
			{Ev: "revoke", Task: "measure/MediumBOOM/sha"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, ok := Read(writeFile(t, tc.body), tc.header)
			if !ok || !reflect.DeepEqual(recs, tc.want) {
				t.Fatalf("Read = %+v, %v; want %+v", recs, ok, tc.want)
			}
			path := filepath.Join(t.TempDir(), "sub", "dir", "rewritten.journal") // Open creates parents
			w := mustOpen(t, path, tc.header)
			for _, rec := range recs {
				w.Append(rec)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != tc.body {
				t.Errorf("rewritten journal differs (err=%v):\n%s\nwant:\n%s", err, got, tc.body)
			}
		})
	}
}

// TestReadTornLines: a journal whose tail was cut mid-record by a crash
// must still yield every intact record, in both dialects.
func TestReadTornLines(t *testing.T) {
	recs, ok := Read(writeFile(t, sweepDialect+`{"ev":"done","task":"profile/bitcoun`), sweepHeader)
	if !ok || len(recs) != 3 {
		t.Errorf("sweep dialect: %d records, ok=%v; want the 3 intact ones", len(recs), ok)
	}
	recs, ok = Read(writeFile(t, fabricDialect+`{"ev":"cell","task":"measure/mega/sha","pa`), fabricHeader)
	if !ok || len(recs) != 3 {
		t.Errorf("fabric dialect: %d records, ok=%v; want the 3 intact ones", len(recs), ok)
	}
	for _, rec := range recs {
		if rec.Task == "measure/mega/sha" {
			t.Error("torn record must not be returned")
		}
	}
}

// TestReadForeignHeader: a journal headed by a different campaign — or a
// different dialect, or no header at all, or nothing — is never replayed.
func TestReadForeignHeader(t *testing.T) {
	for name, path := range map[string]string{
		"foreign campaign": writeFile(t, strings.Replace(sweepDialect, sweepHeader.ID, "deadbeef", 1)),
		"foreign dialect":  writeFile(t, strings.Replace(sweepDialect, `"sweep"`, `"fabric"`, 1)),
		"headerless":       writeFile(t, `{"ev":"done","task":"profile/sha","ns":7}`+"\n"),
		"torn header":      writeFile(t, `{"ev":"sweep","id":"19b9`+"\n"+`{"ev":"done","task":"profile/sha","ns":7}`+"\n"),
		"empty":            writeFile(t, ""),
		"missing":          filepath.Join(t.TempDir(), "absent"),
	} {
		if recs, ok := Read(path, sweepHeader); ok || len(recs) != 0 {
			t.Errorf("%s: replayed %d record(s), ok=%v", name, len(recs), ok)
		}
	}
}

// TestHeaderDurable: Open must put the header on disk before returning, so
// the journal's identity survives a crash that follows immediately.
func TestHeaderDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	w := mustOpen(t, path, sweepHeader)
	defer w.Close()
	if recs, ok := Read(path, sweepHeader); !ok || len(recs) != 0 {
		t.Fatalf("right after Open: %d records, ok=%v; want a bare matching header", len(recs), ok)
	}
}

// TestExtendRoundTrip: the restart shape — recover records, reopen,
// append more, and a second recovery sees both generations.
func TestExtendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	w := mustOpen(t, path, fabricHeader)
	w.Append(Record{Ev: "cell", Task: "profile/sha"})
	w.Append(Record{Ev: "cell", Task: "measure/medium/sha", Payload: []byte("gen-1")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = mustOpen(t, path, fabricHeader)
	w.AppendSync(Record{Ev: "cell", Task: "measure/mega/sha", Payload: []byte("gen-2")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, ok := Read(path, fabricHeader)
	if !ok || len(recs) != 3 || string(recs[1].Payload) != "gen-1" || string(recs[2].Payload) != "gen-2" {
		t.Fatalf("after extend: %+v, ok=%v", recs, ok)
	}
}

// TestExtendAfterTornTail: extending a journal whose last line was torn
// by a crash must not glue the first appended record onto the fragment.
func TestExtendAfterTornTail(t *testing.T) {
	path := writeFile(t, fabricDialect+`{"ev":"cell","task":"measure/mega/sha","pa`)
	w := mustOpen(t, path, fabricHeader)
	w.Append(Record{Ev: "cell", Task: "measure/mega/qsort", Payload: []byte("kept")})
	w.Close()
	recs, ok := Read(path, fabricHeader)
	if !ok || len(recs) != 4 || recs[3].Task != "measure/mega/qsort" || string(recs[3].Payload) != "kept" {
		t.Fatalf("record appended after a torn tail was lost: %+v, ok=%v", recs, ok)
	}
}

// TestExtendChecksHeader: Open keeps a file only when its header
// matches; anything else would be appended to forever and ignored on
// every read, so it is truncated and re-headed instead.
func TestExtendChecksHeader(t *testing.T) {
	for name, body := range map[string]string{
		"empty":            "",
		"torn header":      `{"ev":"fabric","id":"0123`,
		"foreign campaign": strings.Replace(fabricDialect, fabricHeader.ID, "deadbeef", 1),
		"not a journal":    "hello\nworld\n",
	} {
		path := writeFile(t, body)
		w := mustOpen(t, path, fabricHeader)
		w.Append(Record{Ev: "cell", Task: "profile/sha"})
		w.Close()
		recs, ok := Read(path, fabricHeader)
		if !ok || len(recs) != 1 || recs[0].Task != "profile/sha" {
			t.Errorf("%s: after extend+append Read = %+v, ok=%v; want exactly the appended record", name, recs, ok)
		}
	}
	// And a missing file is simply created.
	path := filepath.Join(t.TempDir(), "absent.journal")
	w := mustOpen(t, path, fabricHeader)
	w.Close()
	if _, ok := Read(path, fabricHeader); !ok {
		t.Error("extend of a missing file did not create a headed journal")
	}
}

// TestWriteErrorReportedOnce: a journal whose file rejects writes (here a
// file opened read-only, standing in for ENOSPC) must not silently drop
// records. The first failed append is reported through the callback,
// exactly once, and disables the writer so the failure degrades to "no
// journal" instead of a half-written one a resume would half-trust.
func TestWriteErrorReportedOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reports int
	w := &Writer{f: f, onError: func(error) { reports++ }}
	w.Append(Record{Ev: "cell", Task: "profile/sha"})
	w.Append(Record{Ev: "cell", Task: "profile/qsort"})
	w.AppendSync(Record{Ev: "revoke", Task: "profile/qsort"})
	if reports != 1 {
		t.Errorf("reported %d times, want exactly 1 (first error only)", reports)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Errorf("read-only journal has %d bytes on disk, want 0 (err=%v)", len(data), err)
	}
}

// TestENOSPCReported: /dev/full fails writes with ENOSPC and exists on
// every Linux CI box this repo targets; a header that cannot be written
// is reported like any other record. Skip elsewhere.
func TestENOSPCReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full on this platform: %v", err)
	}
	path := filepath.Join(t.TempDir(), "test.journal")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Skip(err)
	}
	var reports int
	w, err := Open(path, sweepHeader, func(error) { reports++ })
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Ev: "done", Task: "measure/MediumBOOM/sha"})
	w.Close()
	if reports != 1 {
		t.Errorf("ENOSPC surfaced %d reports, want 1", reports)
	}
}

// TestNilWriter: a nil writer (journaling disabled) is inert.
func TestNilWriter(t *testing.T) {
	var w *Writer
	w.Append(Record{Ev: "cell", Task: "measure/medium/sha", Payload: []byte("x")})
	w.AppendSync(Record{Ev: "revoke", Task: "measure/medium/sha"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalRead feeds arbitrary file contents through the reader and
// the extend path. Whatever is on disk, Read must not panic, must return
// records only under a matching header, and a record appended through
// Open must be the last one a following Read returns — the
// property both crash-recovery bugs (glued torn tail, unchecked header)
// violated.
func FuzzJournalRead(f *testing.F) {
	// testdata/fuzz holds the parent-written dialects and the torn shapes.
	for _, seed := range []string{"", "\n\n", "null\n[]\n7\n"} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, header := range []Record{sweepHeader, fabricHeader} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before, ok := Read(path, header)
			if !ok && len(before) != 0 {
				t.Fatalf("%d records returned under a mismatched header", len(before))
			}
			w := mustOpen(t, path, header)
			marker := Record{Ev: "cell", Task: "fuzz/marker", Payload: []byte{0, 1, 2}}
			w.Append(marker)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			after, ok := Read(path, header)
			if !ok || len(after) != len(before)+1 || !reflect.DeepEqual(after[len(after)-1], marker) {
				t.Fatalf("appended record not read back: ok=%v, %d records before, %d after", ok, len(before), len(after))
			}
			if len(before) > 0 && !reflect.DeepEqual(after[:len(before)], before) {
				t.Fatal("extending changed the records already in the journal")
			}
		}
	})
}
