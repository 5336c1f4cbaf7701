// Package journal is the crash-resume write-ahead log of the distributed
// fabric (internal/fabric): an append-only JSONL file, one Record per
// line, one write syscall per record, so a killed process loses at most
// the line being written. The first record is a header pinning the
// campaign fingerprint; a journal is never read back, or extended, under a
// different header. Torn lines are skipped on read, never fatal.
//
// The package owns the mechanics only. What the records mean is the
// caller's policy: fabric folds "cell"/"revoke" records into a first-wins
// payload map.
package journal

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record is one JSONL line. Every field but Ev is omitempty and the order
// is fixed, so a fragment's lines are byte-for-byte what every earlier
// build wrote.
type Record struct {
	Ev   string `json:"ev"`             // header: "fabric"; then "cell", "revoke"
	ID   string `json:"id,omitempty"`   // campaign fingerprint (header only)
	Task string `json:"task,omitempty"` // e.g. "profile/sha", "measure/MegaBOOM/sha"
	// Payload carries a fabric cell's canonical measure bytes (base64 via
	// encoding/json); profile cells journal with no payload.
	Payload []byte `json:"payload,omitempty"`
}

// Writer is an open, append-only journal, safe for concurrent use; a nil
// *Writer is inert so callers need no guards.
//
// Write errors are never swallowed: a WAL that silently drops a record
// would make a later resume rerun — or worse, half-trust — work that
// actually finished. The first failed write is reported once through the
// Open callback and disables the writer, so the failure mode degrades to
// "no journal" (resume reruns everything), never to a plausible-but-wrong
// one.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	onError  func(error)
	disabled bool
}

// Open prepares the journal at path for appending under header. An
// existing file is extended — but only if its header matches (otherwise
// everything appended would be ignored on read), and after a newline when
// its last line is torn (otherwise the first appended record would be
// glued onto the fragment and lost with it). In every other case the file
// is truncated and a fresh header written and fsynced, so a crash right
// after Open cannot leave a journal without a durable identity. onError
// (may be nil) receives the first write error.
func Open(path string, header Record, onError func(error)) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644); err == nil {
		if scan(f, header, nil) && terminate(f) == nil {
			return &Writer{f: f, onError: onError}, nil
		}
		f.Close()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, onError: onError}
	w.AppendSync(header)
	return w, nil
}

// terminate ends f's last line if a crash left it torn.
func terminate(f *os.File) error {
	var last [1]byte
	st, err := f.Stat()
	if err == nil {
		_, err = f.ReadAt(last[:], st.Size()-1)
	}
	if err == nil && last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// Append writes one record without forcing it to disk.
func (w *Writer) Append(rec Record) { w.write(rec, false) }

// AppendSync writes one record and fsyncs: for records whose loss would
// be a correctness problem rather than recomputation (headers, revokes).
func (w *Writer) AppendSync(rec Record) { w.write(rec, true) }

func (w *Writer) write(rec Record, sync bool) {
	if w == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return // Record always marshals; stay inert regardless
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.disabled {
		return
	}
	n, err := w.f.Write(line) // one write syscall per record: crash loses ≤1 line
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	if err == nil && sync {
		err = w.f.Sync()
	}
	if err != nil {
		w.disabled = true
		if w.onError != nil {
			w.onError(err)
		}
	}
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	return w.f.Close()
}

// Read returns, in file order, every intact record after the header of
// the journal at path. ok is false, with no records, when the file is
// missing or its first intact line is not header: a foreign campaign, or
// no header at all, is never replayed.
func Read(path string, header Record) (recs []Record, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	ok = scan(f, header, func(rec Record) { recs = append(recs, rec) })
	return recs, ok
}

// scan reports whether r's first intact line is header and feeds every
// intact record after it to each; a nil each stops at the header.
func scan(r io.Reader, header Record, each func(Record)) bool {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // payload-bearing fabric cells are the long lines
	matched := false
	for sc.Scan() {
		var rec Record
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue // torn write from a crash: ignore the fragment
		}
		if matched {
			each(rec)
			continue
		}
		matched = rec.Ev == header.Ev && rec.ID == header.ID
		if !matched || each == nil {
			return matched
		}
	}
	return matched
}
