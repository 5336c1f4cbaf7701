// Package artifact implements the content-addressed, on-disk artifact
// cache behind the SimPoint pipeline. Every pipeline stage (BBV profiling,
// SimPoint selection, checkpoint creation, detailed measurement) keys its
// output by a SHA-256 over a canonical encoding of the stage's inputs —
// workload identity and generator parameters, BOOM configuration, interval
// size, warm-up length, technology library, and a per-stage schema version
// — so bit-identical inputs hit a prior run's artifact instead of
// recomputing it. The paper's whole argument is avoiding redundant
// simulation; this cache extends that economy across process boundaries.
//
// Entries are written atomically (temp file + rename) and self-verify on
// read: a corrupted, truncated, or schema-version-mismatched entry is
// evicted and reported as a miss, never returned. Hit/miss/evict/write
// counters register in an optional internal/metrics registry.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// entryMagic identifies an artifact file ("RVARTFC1").
const entryMagic = 0x52564152_54464331

// headerSize is the fixed prefix before the payload: magic, version,
// costNS, payload length, then a SHA-256 over (version, costNS, length,
// payload) so corruption anywhere in the entry — metadata included — is
// detected.
const headerSize = 8 + 8 + 8 + 8 + sha256.Size

// maxPayload bounds a single artifact (defense against corrupt headers).
const maxPayload = 1 << 32

// Cache is a content-addressed artifact store rooted at one directory.
// The zero value is not usable; call Open. A Cache is safe for concurrent
// use: entries are immutable once renamed into place, and concurrent
// writers of the same key converge on identical content.
type Cache struct {
	dir    string
	reg    *metrics.Registry     // optional; nil disables instrumentation
	inj    *faultinject.Injector // optional; nil disables fault sites
	remote *Remote               // optional read-through/write-through tier
	log    func(format string, args ...any)

	// Fail-open state: a cache is an optimization, so a disk that stops
	// accepting writes (ENOSPC, quota, read-only remount) must degrade the
	// sweep to recomputation, not fail it.
	wmu       sync.Mutex
	writeErrs int  // consecutive real putRaw failures
	failOpen  bool // local writes disabled for the rest of the run
}

// Open returns a cache rooted at dir. The directory is created lazily on
// first write, so Open itself never touches the filesystem and never
// fails; a missing or empty directory simply misses every lookup.
func Open(dir string) *Cache { return &Cache{dir: dir} }

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// SetMetrics attaches a metrics registry. Counters: "artifact.hit",
// "artifact.miss", "artifact.evict", "artifact.put", "artifact.put_bytes",
// "artifact.saved_ns" (compute time short-circuited by hits), plus
// per-stage "artifact.<stage>.hit" / "artifact.<stage>.miss", and the
// degradation counters "artifact.write_errors", "artifact.fail_open",
// "artifact.put_skipped". A nil registry (the default) disables
// instrumentation. Propagates to an attached Remote.
func (c *Cache) SetMetrics(reg *metrics.Registry) {
	c.reg = reg
	if c.remote != nil {
		c.remote.SetMetrics(reg)
	}
}

// SetLog attaches a printf-style logger for the cache's one operational
// warning (the fail-open transition). Nil (the default) keeps it silent.
func (c *Cache) SetLog(fn func(format string, args ...any)) { c.log = fn }

// SetFaultInjector attaches a deterministic fault-injection plan (chaos
// testing). Two sites are exposed: "artifact.read/<stage>" corrupts entry
// bytes after they leave the disk — exercising the checksum→evict→miss
// path — and "artifact.write/<stage>" fails a Put with an injected error.
// A nil injector (the default) disables both.
func (c *Cache) SetFaultInjector(inj *faultinject.Injector) { c.inj = inj }

// SetRemote attaches a remote artifact store as a second tier: Get falls
// through a local miss to a checksum-verified remote fetch (filling the
// local tier on success), and Put pushes every entry to the store after
// the local write, so stages computed on one node feed every other node
// sharing the store. A nil remote (the default) keeps the cache purely
// local. See Remote for the fetch-verification contract.
func (c *Cache) SetRemote(r *Remote) {
	c.remote = r
	if r != nil && c.reg != nil {
		r.SetMetrics(c.reg)
	}
}

// path returns the entry file for a key: <dir>/<stage>/<hh>/<hex>.v<N>.
// The schema version is part of the file name, so entries written under an
// older schema are never even opened after a version bump. It is what
// filepath.Join of those four elements returns — the non-empty ones joined,
// then cleaned — built in one allocation: Clean returns an already-clean
// path as it is.
func (c *Cache) path(k Key) string {
	h := k.hexSum()
	var ver [20]byte
	v := strconv.AppendInt(ver[:0], int64(k.Version), 10)
	var b strings.Builder
	b.Grow(len(c.dir) + len(k.Stage) + len(h) + len(v) + 5)
	for _, e := range [...]string{c.dir, k.Stage} {
		if e != "" {
			b.WriteString(e)
			b.WriteByte(filepath.Separator)
		}
	}
	b.Write(h[:2])
	b.WriteByte(filepath.Separator)
	b.Write(h[2:])
	b.WriteString(".v")
	b.Write(v)
	return filepath.Clean(b.String())
}

// Get looks up an artifact. On a hit it returns the payload and the
// compute cost (in nanoseconds) recorded when the artifact was written —
// the wall-clock the hit just saved, which callers reuse to keep cached
// and uncached runs report-identical. Corrupted or version-mismatched
// entries are evicted and reported as a miss.
//
// With a remote store attached (SetRemote), a local miss — including a
// local eviction — falls through to a remote fetch. A fetched entry is
// checksum-verified before use: a corrupt entry is evicted from the store
// (so the slot heals on the next Push) and reported as a miss, never
// returned. Verified entries fill the local tier and count as hits.
func (c *Cache) Get(k Key) (payload []byte, costNS int64, ok bool) {
	miss := func() ([]byte, int64, bool) {
		c.reg.Counter("artifact.miss").Inc()
		c.stageCounter(k.Stage, ".miss").Inc()
		return nil, 0, false
	}
	data, err := os.ReadFile(c.path(k))
	if err == nil {
		data = c.inj.Corrupt(data, "artifact.read", k.Stage)
		payload, costNS, err = decodeEntry(data, k.Version)
		if err == nil {
			c.countHit(k, costNS)
			return payload, costNS, true
		}
		// Corrupt or mismatched: evict so the slot heals on the next write
		// (or on the remote fetch below).
		c.evict(k)
	}
	if c.remote == nil {
		return miss()
	}
	entry, ok := c.fetchRemote(k)
	if !ok {
		return miss()
	}
	payload, costNS, err = decodeEntry(entry, k.Version)
	if err != nil {
		// unreachable: fetchRemote only returns verified entries
		return miss()
	}
	c.countHit(k, costNS)
	return payload, costNS, true
}

// countHit is the accounting of one served entry, shared by Get and Cost.
func (c *Cache) countHit(k Key, costNS int64) {
	c.reg.Counter("artifact.hit").Inc()
	c.stageCounter(k.Stage, ".hit").Inc()
	c.reg.Counter("artifact.saved_ns").Add(costNS)
}

// stageCounter is the per-stage counter "artifact.<stage><event>". Its name
// is built, in one allocation, only when a registry is attached.
func (c *Cache) stageCounter(stage, event string) *metrics.Counter {
	if c.reg == nil {
		return nil
	}
	return c.reg.Counter("artifact." + stage + event)
}

func (c *Cache) evict(k Key) {
	os.Remove(c.path(k))
	c.reg.Counter("artifact.evict").Inc()
}

// Has reports whether the local tier holds a file for k: one stat — no
// read, no verification, no counter. It is a hint for choosing a read
// strategy; only Get and Cost say whether the entry is good.
func (c *Cache) Has(k Key) bool {
	_, err := os.Stat(c.path(k))
	return err == nil
}

// Cost is Get for a caller that needs only the recorded compute cost: the
// local entry is verified exactly as Get verifies it — framing, schema
// version, length against the file size, SHA-256 over metadata and payload
// — but in one streaming pass through a pooled buffer, so no payload is
// held. A good entry counts as a hit like any other; a bad one is evicted.
// Not ok (entry absent, bad, or behind a chaos plan that rewrites this
// stage's bytes in memory) counts no miss: the caller falls back to Get,
// whose remote fall-through and miss accounting then apply once.
func (c *Cache) Cost(k Key) (costNS int64, ok bool) {
	if c.inj.Transforms("artifact.read", k.Stage) {
		return 0, false
	}
	f, err := os.Open(c.path(k))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err == nil {
		costNS, err = verifyEntry(f, info.Size(), k.Version)
	}
	if err != nil {
		c.evict(k)
		return 0, false
	}
	c.countHit(k, costNS)
	return costNS, true
}

// fetchRemote pulls one entry from the remote store and verifies it
// end to end before anything downstream can touch it. The contract is
// absolute: corrupt bytes are never served. A checksum mismatch — whether
// from the wire, the store's disk, or the injected "artifact.fetch" chaos
// site — evicts the store slot (best effort) so the next Push heals it,
// and the caller recomputes. Verified entries are written through to the
// local tier so subsequent Gets stop paying the round trip.
func (c *Cache) fetchRemote(k Key) (entry []byte, ok bool) {
	if err := c.inj.Hit("artifact.fetch", k.Stage); err != nil {
		c.reg.Counter("artifact.remote.error").Inc()
		return nil, false
	}
	entry, err := c.remote.Fetch(k)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			c.reg.Counter("artifact.remote.miss").Inc()
		} else {
			c.reg.Counter("artifact.remote.error").Inc()
		}
		return nil, false
	}
	entry = c.inj.Corrupt(entry, "artifact.fetch", k.Stage)
	if _, _, err := decodeEntry(entry, k.Version); err != nil {
		_ = c.remote.Evict(k)
		c.reg.Counter("artifact.remote.evict").Inc()
		return nil, false
	}
	if c.writeAllowed() {
		if err := c.putRaw(k, entry); err == nil {
			c.noteWriteOK()
			c.reg.Counter("artifact.remote.fill").Inc()
		} else {
			c.noteWriteError(k, err)
		}
	}
	c.reg.Counter("artifact.remote.fetch").Inc()
	return entry, true
}

// writeAllowed reports whether local writes are still enabled.
func (c *Cache) writeAllowed() bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return !c.failOpen
}

func (c *Cache) noteWriteOK() {
	c.wmu.Lock()
	c.writeErrs = 0
	c.wmu.Unlock()
}

// noteWriteError records a real (non-injected) putRaw failure and decides
// whether to fail open. Out-of-space conditions disable writes
// immediately — every subsequent write would fail the same way — while
// anything else must persist for writeErrTrip consecutive Puts first, so
// one transient hiccup doesn't permanently disable the cache. The
// transition logs exactly one warning.
func (c *Cache) noteWriteError(k Key, err error) {
	c.reg.Counter("artifact.write_errors").Inc()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.writeErrs++
	fatal := errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) || errors.Is(err, syscall.EROFS)
	if c.failOpen || (!fatal && c.writeErrs < writeErrTrip) {
		return
	}
	c.failOpen = true
	c.reg.Counter("artifact.fail_open").Inc()
	if c.log != nil {
		c.log("artifact cache failing open: writing %s under %s: %v (caching disabled for this run; stages recompute instead)", k, c.dir, err)
	}
}

// writeErrTrip is how many consecutive non-fatal write errors disable the
// local cache tier.
const writeErrTrip = 3

// Put stores an artifact atomically: the entry is written to a temp file
// in the cache root and renamed into place, so readers only ever observe
// complete entries. costNS records how long the payload took to compute.
//
// Local-tier write failures never fail the Put — a cache is an
// optimization, so a full or read-only disk degrades the run to
// recomputation ("artifact.write_errors"). ENOSPC/EDQUOT/EROFS, or
// writeErrTrip consecutive failures of any kind, fail the cache open:
// one warning, an "artifact.fail_open" counter, and every later Put
// skips the local write ("artifact.put_skipped"). Injected
// "artifact.write" faults still fail loudly — chaos tests exercise the
// caller's retry path through them.
//
// With a remote store attached, the entry is pushed to the store after
// the local write, and a push failure fails the Put: a distributed worker
// must not report a stage done while its artifact is invisible to the
// rest of the cluster. The exception is an open circuit breaker — the
// store is already known-dead, the cluster is already degrading to local
// recompute, so the push is skipped ("artifact.remote.push_skipped")
// rather than failed. Concurrent Puts of the same key are idempotent —
// the content-addressed key makes every writer's entry byte-identical
// (modulo the advisory costNS), so last-rename/last-push wins harmlessly.
func (c *Cache) Put(k Key, payload []byte, costNS int64) error {
	if err := c.inj.Hit("artifact.write", k.Stage); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", k, err)
	}
	entry := encodeEntry(payload, k.Version, costNS)
	if !c.writeAllowed() {
		c.reg.Counter("artifact.put_skipped").Inc()
	} else if err := c.putRaw(k, entry); err != nil {
		c.noteWriteError(k, err)
	} else {
		c.noteWriteOK()
		c.reg.Counter("artifact.put").Inc()
		c.reg.Counter("artifact.put_bytes").Add(int64(len(payload)))
	}
	if c.remote != nil {
		if err := c.remote.Push(k, entry); errors.Is(err, ErrBreakerOpen) {
			c.reg.Counter("artifact.remote.push_skipped").Inc()
		} else if err != nil {
			c.reg.Counter("artifact.remote.push_error").Inc()
			return fmt.Errorf("artifact: pushing %s to remote store: %w", k, err)
		} else {
			c.reg.Counter("artifact.remote.push").Inc()
		}
	}
	return nil
}

// putRaw renames an already-encoded entry into place atomically (the
// local-write half of Put, also used for remote read-through fills and by
// the store server's PUT handler).
func (c *Cache) putRaw(k Key, entry []byte) error {
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(entry)
	cerr := tmp.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	return os.Rename(tmp.Name(), path)
}

// Entries walks the cache and reports the number of artifact files and
// their total byte size (diagnostics and tests).
func (c *Cache) Entries() (n int, bytes int64, err error) {
	err = filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		bytes += info.Size()
		return nil
	})
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	return n, bytes, err
}

func encodeEntry(payload []byte, version int, costNS int64) []byte {
	out := make([]byte, headerSize+len(payload))
	le := binary.LittleEndian
	le.PutUint64(out[0:], entryMagic)
	le.PutUint64(out[8:], uint64(version))
	le.PutUint64(out[16:], uint64(costNS))
	le.PutUint64(out[24:], uint64(len(payload)))
	h := sha256.New()
	h.Write(out[8:32]) // version, costNS, payload length
	h.Write(payload)
	copy(out[32:], h.Sum(nil))
	copy(out[headerSize:], payload)
	return out
}

// parseHeader checks an entry's fixed prefix against the expected schema
// version and the entry's total size, returning the recorded cost.
func parseHeader(hdr []byte, size int64, version int) (costNS int64, err error) {
	if size < headerSize {
		return 0, fmt.Errorf("artifact: entry truncated (%d bytes)", size)
	}
	le := binary.LittleEndian
	if m := le.Uint64(hdr[0:]); m != entryMagic {
		return 0, fmt.Errorf("artifact: bad magic %#x", m)
	}
	if v := le.Uint64(hdr[8:]); v != uint64(version) {
		return 0, fmt.Errorf("artifact: schema version %d, want %d", v, version)
	}
	if n := le.Uint64(hdr[24:]); n > maxPayload || int64(n) != size-headerSize {
		return 0, fmt.Errorf("artifact: payload length %d vs %d bytes on disk", n, size-headerSize)
	}
	return int64(le.Uint64(hdr[16:])), nil
}

var errChecksum = errors.New("artifact: entry checksum mismatch")

func decodeEntry(data []byte, version int) (payload []byte, costNS int64, err error) {
	if costNS, err = parseHeader(data, int64(len(data)), version); err != nil {
		return nil, 0, err
	}
	payload = data[headerSize:]
	h := sha256.New()
	h.Write(data[8:32])
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), data[32:32+sha256.Size]) {
		return nil, 0, errChecksum
	}
	return payload, costNS, nil
}

// verifyBufs holds the read buffers of verifyEntry.
var verifyBufs = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// verifyEntry is decodeEntry over a stream of size bytes: the same checks
// and the same cost, the payload hashed as it passes and never held. It
// reads no more than size bytes, whatever the length field says.
func verifyEntry(r io.Reader, size int64, version int) (costNS int64, err error) {
	buf := verifyBufs.Get().(*[64 << 10]byte)
	defer verifyBufs.Put(buf)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("artifact: entry truncated (%d bytes)", size)
	}
	if costNS, err = parseHeader(hdr[:], size, version); err != nil {
		return 0, err
	}
	h := sha256.New()
	h.Write(hdr[8:32])
	// LimitReader also hides any WriterTo of r, so the copy goes through buf.
	if n, err := io.CopyBuffer(h, io.LimitReader(r, size-headerSize), buf[:]); err != nil || n != size-headerSize {
		return 0, fmt.Errorf("artifact: entry truncated (%d of %d bytes)", headerSize+n, size)
	}
	if !bytes.Equal(h.Sum(buf[:0]), hdr[32:]) {
		return 0, errChecksum
	}
	return costNS, nil
}
