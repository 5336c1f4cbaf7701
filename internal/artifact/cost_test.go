package artifact

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// bigPayload spans several of verifyEntry's 64 KiB reads.
func bigPayload() []byte {
	p := make([]byte, 200<<10+17)
	for i := range p {
		p[i] = byte(i * 31)
	}
	return p
}

// TestCostIsGetWithoutThePayload: same cost, same accounting, for entries
// smaller and larger than the read buffer; Has counts nothing.
func TestCostIsGetWithoutThePayload(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("p"), bigPayload()} {
		reg := metrics.NewRegistry()
		c := Open(t.TempDir())
		c.SetMetrics(reg)
		k := testKey(t, 1, "sha")
		if c.Has(k) {
			t.Fatal("Has on an empty cache")
		}
		if _, ok := c.Cost(k); ok {
			t.Fatal("Cost hit on an empty cache")
		}
		if err := c.Put(k, payload, 50); err != nil {
			t.Fatal(err)
		}
		if !c.Has(k) {
			t.Fatal("Has misses a written entry")
		}
		cost, ok := c.Cost(k)
		if !ok || cost != 50 {
			t.Fatalf("Cost = %d, %v; want 50, true", cost, ok)
		}
		if _, gcost, ok := c.Get(k); !ok || gcost != cost {
			t.Fatalf("Get cost %d, %v disagrees with Cost %d", gcost, ok, cost)
		}
		for name, want := range map[string]int64{
			"artifact.hit":        2,
			"artifact.stage.hit":  2,
			"artifact.saved_ns":   100,
			"artifact.miss":       0, // an absent entry is the caller's Get to count
			"artifact.stage.miss": 0,
			"artifact.evict":      0,
		} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("%d-byte payload: %s = %d, want %d", len(payload), name, got, want)
			}
		}
	}
}

// TestCostCorruptionEvicts is TestCacheCorruptionIsMissAndEvicts for the
// streaming verifier: any flipped byte — the cost field included — fails,
// evicts, and leaves the miss for the Get that follows.
func TestCostCorruptionEvicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"magic", 0},
		{"version", 8},
		{"cost", 16},
		{"length", 24},
		{"checksum", 32},
		{"payload-first", headerSize},
		{"payload-last", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			c := Open(t.TempDir())
			c.SetMetrics(reg)
			k := testKey(t, 1, "sha")
			if err := c.Put(k, bigPayload(), 7); err != nil {
				t.Fatal(err)
			}
			corrupt(t, c, k, tc.off)
			if _, ok := c.Cost(k); ok {
				t.Fatal("corrupted entry verified")
			}
			if c.Has(k) {
				t.Fatal("corrupted entry not evicted")
			}
			if e, m, h := reg.Counter("artifact.evict").Value(), reg.Counter("artifact.miss").Value(), reg.Counter("artifact.hit").Value(); e != 1 || m != 0 || h != 0 {
				t.Fatalf("evict/miss/hit = %d/%d/%d, want 1/0/0", e, m, h)
			}
		})
	}
}

// countingReader records how many bytes were asked of it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestVerifyEntryFraming: a truncated entry, and one whose length field
// disagrees with the file size in either direction, are rejected having
// read no more than the header — never past the file, never a payload the
// length field invented.
func TestVerifyEntryFraming(t *testing.T) {
	good := encodeEntry(bigPayload(), 3, 9)
	if cost, err := verifyEntry(bytes.NewReader(good), int64(len(good)), 3); err != nil || cost != 9 {
		t.Fatalf("good entry: cost %d, err %v", cost, err)
	}
	relen := func(n uint64) []byte {
		out := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(out[24:], n)
		return out
	}
	for name, data := range map[string][]byte{
		"empty":           nil,
		"short header":    good[:headerSize-1],
		"truncated":       good[:len(good)-1],
		"extended":        append(append([]byte(nil), good...), 0),
		"length too big":  relen(1 << 40),
		"length too long": relen(uint64(len(good)-headerSize) + 1),
		"length short":    relen(uint64(len(good)-headerSize) - 1),
		"wrong version":   encodeEntry([]byte("x"), 4, 9),
	} {
		cr := &countingReader{r: bytes.NewReader(data)}
		if _, err := verifyEntry(cr, int64(len(data)), 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if cr.n > headerSize {
			t.Errorf("%s: read %d bytes before rejecting a framing error, want at most the %d-byte header", name, cr.n, headerSize)
		}
		if _, _, err := decodeEntry(data, 3); err == nil {
			t.Errorf("%s: decodeEntry disagrees and accepts", name)
		}
	}
	// A file that shrinks under the reader (size says more than there is).
	if _, err := verifyEntry(bytes.NewReader(good[:len(good)-5]), int64(len(good)), 3); err == nil {
		t.Error("entry shorter than its stat size accepted")
	}
}

// TestCostDefersToGetUnderReadChaos: a chaos plan that rewrites a stage's
// bytes in memory needs them in memory; Cost steps aside, uncounted, for
// the stages it targets and only those.
func TestCostDefersToGetUnderReadChaos(t *testing.T) {
	inj, err := faultinject.Parse("1:artifact.read/stage=corrupt:2x*")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c := Open(t.TempDir())
	c.SetMetrics(reg)
	c.SetFaultInjector(inj)
	k := testKey(t, 1, "sha")
	other := NewKey("other", 1, "x")
	for _, key := range []Key{k, other} {
		if err := c.Put(key, []byte("payload"), 7); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Cost(k); ok {
		t.Fatal("Cost verified an entry the chaos plan corrupts on read")
	}
	if _, err := os.Stat(c.path(k)); err != nil {
		t.Fatalf("the entry on disk is good and must stay: %v", err)
	}
	if h, e := reg.Counter("artifact.hit").Value(), reg.Counter("artifact.evict").Value(); h != 0 || e != 0 {
		t.Fatalf("hit/evict = %d/%d, want 0/0", h, e)
	}
	if _, ok := c.Cost(other); !ok {
		t.Fatal("Cost refused a stage the plan does not target")
	}
}

// FuzzArtifactEntry: for arbitrary bytes and version, the streaming
// verifier and decodeEntry accept exactly the same inputs and return the
// same cost; neither panics.
func FuzzArtifactEntry(f *testing.F) {
	good := encodeEntry([]byte("payload bytes"), 1, 7)
	f.Add(good, 1)
	f.Add(good, 2)
	f.Add(good[:len(good)-1], 1)
	f.Add(good[:headerSize], 1)
	f.Add(append(append([]byte(nil), good...), 0), 1)
	f.Add(encodeEntry(nil, 0, -1), 0)
	f.Add([]byte("garbage"), 1)
	flipped := append([]byte(nil), good...)
	flipped[16] ^= 1 // cost field
	f.Add(flipped, 1)
	f.Fuzz(func(t *testing.T, data []byte, version int) {
		payload, dcost, derr := decodeEntry(data, version)
		vcost, verr := verifyEntry(bytes.NewReader(data), int64(len(data)), version)
		if (derr == nil) != (verr == nil) {
			t.Fatalf("decodeEntry err %v, verifyEntry err %v", derr, verr)
		}
		if derr != nil {
			return
		}
		if dcost != vcost {
			t.Fatalf("decodeEntry cost %d, verifyEntry cost %d", dcost, vcost)
		}
		if !bytes.Equal(encodeEntry(payload, version, dcost), data) {
			t.Fatal("accepted entry does not re-encode to itself")
		}
	})
}
