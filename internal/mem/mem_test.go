package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("read64: %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Fatalf("read32: %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Fatalf("read32 hi: %#x", got)
	}
	if got := m.Read(0x1000, 2); got != 0x7788 {
		t.Fatalf("read16: %#x", got)
	}
	if got := m.Read(0x1007, 1); got != 0x11 {
		t.Fatalf("read8: %#x", got)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	m := New()
	if m.Read(0xDEADBEEF000, 8) != 0 {
		t.Fatal("untouched memory should be zero")
	}
	if m.PageCount() != 0 {
		t.Fatal("reads must not allocate pages")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(2*PageSize - 3) // straddles a page boundary
	m.Write(addr, 8, 0xA1B2C3D4E5F60718)
	if got := m.Read(addr, 8); got != 0xA1B2C3D4E5F60718 {
		t.Fatalf("cross-page read: %#x", got)
	}
	if m.PageCount() != 2 {
		t.Fatalf("expected 2 pages, got %d", m.PageCount())
	}
}

func TestSetBytesAndReadBytes(t *testing.T) {
	m := New()
	data := make([]byte, 3*PageSize+17)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	base := uint64(0x80001234)
	m.SetBytes(base, data)
	if got := m.ReadBytes(base, len(data)); !bytes.Equal(got, data) {
		t.Fatal("SetBytes/ReadBytes mismatch")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Write64(0x100, 42)
	c := m.Clone()
	c.Write64(0x100, 99)
	if m.Read64(0x100) != 42 {
		t.Fatal("clone mutated the original")
	}
	if c.Read64(0x100) != 99 {
		t.Fatal("clone lost its own write")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1 << 40))
		m.Write64(addrs[i], rng.Uint64())
	}
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New()
	if err := m2.Deserialize(&buf); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if m.Read64(a) != m2.Read64(a) {
			t.Fatalf("mismatch at %#x", a)
		}
	}
	if m.PageCount() != m2.PageCount() {
		t.Fatalf("page counts differ: %d vs %d", m.PageCount(), m2.PageCount())
	}
}

func TestDeserializeRejectsTruncated(t *testing.T) {
	m := New()
	m.Write64(0, 1)
	var buf bytes.Buffer
	if err := m.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if err := New().Deserialize(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

// Property: a write of any width followed by a read of the same width at the
// same address returns the written value masked to that width.
func TestWriteReadProperty(t *testing.T) {
	f := func(addr uint64, v uint64, sizeSel uint8) bool {
		m := New()
		size := 1 << (sizeSel % 4) // 1,2,4,8
		addr &= (1 << 44) - 1
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: non-overlapping byte writes do not interfere.
func TestDisjointWritesProperty(t *testing.T) {
	f := func(a, b uint64, va, vb byte) bool {
		a &= (1 << 40) - 1
		b &= (1 << 40) - 1
		if a == b {
			return true
		}
		m := New()
		m.SetByte(a, va)
		m.SetByte(b, vb)
		return m.ByteAt(a) == va && m.ByteAt(b) == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// byteModel is the obvious memory the TLB-fronted one must behave like.
type byteModel map[uint64]byte

func (b byteModel) read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (b byteModel) write(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		b[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// TestSizedAccessesAgainstByteModel drives the sized accessors with random
// reads and writes over more pages than the TLB has entries, several of
// them sharing a TLB slot, with a third of the accesses straddling a page
// boundary, and checks every read against a byte-per-key model.
func TestSizedAccessesAgainstByteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, model := New(), byteModel{}
	pages := make([]uint64, 3*tlbSize)
	for i := range pages {
		// Consecutive groups of three collide in the direct-mapped TLB.
		pages[i] = uint64(i%tlbSize) + uint64(i/tlbSize)*tlbSize*7
	}
	for i := 0; i < 200_000; i++ {
		size := 1 << rng.Intn(4)
		addr := pages[rng.Intn(len(pages))]<<PageBits + uint64(rng.Intn(PageSize))
		if rng.Intn(3) == 0 {
			addr = addr&^pageMask + PageSize - uint64(1+rng.Intn(size)) // ends in the next page when size > 1
		}
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			model.write(addr, size, v)
			switch size {
			case 1:
				m.Write8(addr, uint8(v))
			case 2:
				m.Write16(addr, uint16(v))
			case 4:
				m.Write32(addr, uint32(v))
			case 8:
				m.Write64(addr, v)
			}
			continue
		}
		var got uint64
		switch size {
		case 1:
			got = uint64(m.Read8(addr))
		case 2:
			got = uint64(m.Read16(addr))
		case 4:
			got = uint64(m.Read32(addr))
		case 8:
			got = m.Read64(addr)
		}
		if want := model.read(addr, size); got != want {
			t.Fatalf("op %d: read%d(%#x) = %#x, want %#x", i, 8*size, addr, got, want)
		}
		if g := m.Read(addr, size); g != got {
			t.Fatalf("op %d: Read(%#x, %d) = %#x, sized accessor gave %#x", i, addr, size, g, got)
		}
	}
}

// TestReadsNeverCreatePages: no read of any shape — sized, straddling into
// untouched memory, bulk — may add a page, because PageCount and the
// Serialize bytes are what a checkpoint stores.
func TestReadsNeverCreatePages(t *testing.T) {
	m := New()
	m.Write64(5*PageSize-8, 0x0102030405060708) // last word of page 4; page 5 untouched
	var before bytes.Buffer
	if err := m.Serialize(&before); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0, 5 * PageSize, 5*PageSize - 3, 99 * PageSize, 1<<63 + 17} {
		m.Read8(addr)
		m.Read16(addr)
		m.Read32(addr)
		m.Read64(addr)
		m.Read(addr, 8)
		m.ByteAt(addr)
		m.ReadBytes(addr, 3*PageSize)
	}
	if got := m.Read64(5*PageSize - 3); got != 0x010203 {
		t.Fatalf("straddling read into untouched memory = %#x, want 0x010203", got)
	}
	if m.PageCount() != 1 {
		t.Fatalf("reads grew the memory to %d pages", m.PageCount())
	}
	var after bytes.Buffer
	if err := m.Serialize(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("reads changed the serialized image")
	}
}

// TestNoStaleTLBAfterDeserialize: Deserialize replaces the page map, so a
// page pointer cached from the old map must not serve a later access.
func TestNoStaleTLBAfterDeserialize(t *testing.T) {
	img := New()
	img.Write64(0x2000, 222)
	var buf bytes.Buffer
	if err := img.Serialize(&buf); err != nil {
		t.Fatal(err)
	}

	m := New()
	m.Write64(0x2000, 111) // page 2: differs in the image
	m.Write64(0x7000, 777) // page 7: absent from the image
	if m.Read64(0x2000) != 111 || m.Read64(0x7000) != 777 {
		t.Fatal("setup reads failed")
	}
	if err := m.Deserialize(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m.Read64(0x2000); got != 222 {
		t.Errorf("after Deserialize read %d, want the image's 222", got)
	}
	if got := m.Read64(0x7000); got != 0 {
		t.Errorf("after Deserialize a dropped page still reads %d", got)
	}
	m.Write64(0x7000, 1) // must land in a page of the new map
	if m.PageCount() != 2 {
		t.Errorf("write after Deserialize went to a page outside the map: %d pages", m.PageCount())
	}
	var out bytes.Buffer
	if err := m.Serialize(&out); err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := back.Deserialize(&out); err != nil {
		t.Fatal(err)
	}
	if back.Read64(0x7000) != 1 || back.Read64(0x2000) != 222 {
		t.Error("writes after Deserialize did not reach the serialized image")
	}
}

// TestCloneSharesNoTLBState: with both TLBs hot on the same page, writes on
// either side stay on that side.
func TestCloneSharesNoTLBState(t *testing.T) {
	m := New()
	m.Write64(0x3000, 1)
	m.Read64(0x3000) // hot in m
	c := m.Clone()
	if c.Read64(0x3000) != 1 {
		t.Fatal("clone lost the page")
	}
	c.Write64(0x3000, 2)
	m.Write64(0x3008, 3)
	if m.Read64(0x3000) != 1 || c.Read64(0x3000) != 2 {
		t.Errorf("write crossed the clone: original %d, clone %d", m.Read64(0x3000), c.Read64(0x3000))
	}
	if c.Read64(0x3008) != 0 {
		t.Error("original's later write is visible in the clone")
	}
}

func TestReadBytesStraddlesPagesAndHoles(t *testing.T) {
	m := New()
	m.SetBytes(PageSize-2, []byte{1, 2, 3, 4})   // pages 0 and 1
	m.SetBytes(4*PageSize-1, []byte{9, 8, 7, 6}) // pages 3 and 4; page 2 stays untouched
	got := m.ReadBytes(PageSize-3, 3*PageSize+8)
	want := make([]byte, 3*PageSize+8)
	copy(want[1:], []byte{1, 2, 3, 4})
	copy(want[3*PageSize+2:], []byte{9, 8, 7, 6})
	if !bytes.Equal(got, want) {
		t.Fatal("ReadBytes across pages and an untouched hole differs from the bytes written")
	}
	if m.PageCount() != 4 {
		t.Fatalf("ReadBytes over the hole created a page: %d pages", m.PageCount())
	}
}
