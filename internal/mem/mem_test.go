package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
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

func TestForkIsolatesWrites(t *testing.T) {
	m := New()
	m.Write64(0x100, 42)
	c := m.Fork()
	c.Write64(0x100, 99)
	if m.Read64(0x100) != 42 {
		t.Fatal("fork mutated the original")
	}
	if c.Read64(0x100) != 99 {
		t.Fatal("fork lost its own write")
	}
	m.Write64(0x108, 7)
	if c.Read64(0x108) != 0 {
		t.Fatal("original's later write is visible in the fork")
	}
}

// TestSerializeRoundTrip: Serialize writes a page count, then each page
// in increasing index order as its index and its bytes, and ReadDelta over
// an empty memory reads it back whole.
func TestSerializeRoundTrip(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1 << 40))
		m.Write64(addrs[i], rng.Uint64())
	}
	b := serialized(t, m)
	if n := binary.LittleEndian.Uint64(b); n != uint64(m.PageCount()) || len(b) != 8+int(n)*(8+PageSize) {
		t.Fatalf("%d bytes declaring %d pages for a %d-page memory", len(b), n, m.PageCount())
	}
	var prev uint64
	for i, rec := 0, b[8:]; len(rec) > 0; i, rec = i+1, rec[8+PageSize:] {
		key := binary.LittleEndian.Uint64(rec)
		if i > 0 && key <= prev {
			t.Fatalf("page %#x follows %#x", key, prev)
		}
		prev = key
		if !bytes.Equal(rec[8:8+PageSize], m.ReadBytes(key<<PageBits, PageSize)) {
			t.Fatalf("page %#x is stored as other bytes", key)
		}
	}
	m2, err := ReadDelta(bytes.NewReader(b), New())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if m.Read64(a) != m2.Read64(a) {
			t.Fatalf("mismatch at %#x", a)
		}
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

// TestForkSharesNoTLBState: with both TLBs hot on the same page — m's
// entry filled by a write, so it would hit in place — writes on either side
// stay on that side.
func TestForkSharesNoTLBState(t *testing.T) {
	m := New()
	m.Write64(0x3000, 1)
	m.Read64(0x3000) // hot in m
	c := m.Fork()
	if c.Read64(0x3000) != 1 {
		t.Fatal("fork lost the page")
	}
	c.Write64(0x3000, 2)
	m.Write64(0x3008, 3)
	if m.Read64(0x3000) != 1 || c.Read64(0x3000) != 2 {
		t.Errorf("write crossed the fork: original %d, fork %d", m.Read64(0x3000), c.Read64(0x3000))
	}
	if c.Read64(0x3008) != 0 {
		t.Error("original's later write is visible in the fork")
	}
}

// TestForkCopiesOnlyWrittenPages: a fork shares the pages it only reads
// and copies, once, each page it writes; the parent, having forked, copies
// on its next write too.
func TestForkCopiesOnlyWrittenPages(t *testing.T) {
	m := New()
	for p := uint64(0); p < 8; p++ {
		m.Write64(p*PageSize, p)
	}
	f := m.Fork()
	for p := uint64(0); p < 8; p++ {
		f.Read64(p * PageSize)
	}
	f.Write64(3*PageSize, 30)
	f.Write64(3*PageSize+8, 31) // same page: no second copy
	shared := 0
	for k, r := range f.pages {
		if r.page == m.pages[k].page {
			shared++
		}
	}
	if shared != 7 {
		t.Errorf("fork shares %d of 8 pages after writing one, want 7", shared)
	}
	if a := testing.AllocsPerRun(100, func() { f.Write64(3*PageSize+16, 1) }); a != 0 {
		t.Errorf("a write to a page the fork already copied allocates %v times", a)
	}
	if m.pages[0].own || f.pages[0].own {
		t.Error("a shared page is owned after Fork")
	}
}

// TestImageRebuildsEachMark: Image(i) is the memory as it stood at Mark i,
// pages created after the mark included, and it neither changes with later
// writes nor owns a page.
func TestImageRebuildsEachMark(t *testing.T) {
	m := New()
	m.Write64(0x1000, 1)
	m.Record()
	var want [][]byte
	snap := func() {
		var b bytes.Buffer
		if err := m.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b.Bytes())
	}
	snap()
	m.Mark()
	m.Write64(0x1000, 2) // copy of an existing page
	m.Write64(0x5000, 5) // a new page
	snap()
	m.Mark()
	m.Mark() // an empty interval
	snap()
	m.Write64(0x1008, 3)
	m.Write64(0x5000, 6)
	m.Write64(0x9000, 9)
	images := []*Memory{m.Image(0), m.Image(1), m.Image(2)}
	m.Write64(0x1000, 4) // after the images: must not reach them
	for i, img := range images {
		var b bytes.Buffer
		if err := img.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want[i]) {
			t.Errorf("Image(%d) differs from the memory at that mark", i)
		}
		for k, r := range img.pages {
			if r.own {
				t.Errorf("Image(%d) owns page %#x", i, k)
			}
		}
	}
	if got := m.Read64(0x1000); got != 4 {
		t.Errorf("live memory reads %d after the images, want 4", got)
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

// TestDeltaRoundTrip: a memory that started as ref and was written since
// stores, in its delta, the pages it wrote into new bytes — XORed with
// ref's, so the bytes it left alone read zero — and the pages it created,
// as they are; not a page rewritten to its old bytes. ReadDelta puts it
// back whole, as a copy-on-write image. ReadDelta refuses an all-zero XOR
// page and indices out of order, and WriteDelta a memory that lacks one of
// ref's pages.
func TestDeltaRoundTrip(t *testing.T) {
	ref := New()
	ref.SetBytes(0x1000, bytes.Repeat([]byte{7}, 3*PageSize))
	m := ref.Fork()
	m.Write8(0x1000, 8)   // page 1: new bytes
	m.Write8(0x2000, 7)   // page 2: its old bytes
	m.Write64(0x90000, 1) // a page ref lacks
	var d DeltaWriter
	var delta bytes.Buffer
	if err := d.WriteDelta(&delta, m, ref); err != nil {
		t.Fatal(err)
	}
	b := delta.Bytes()
	want := make([]byte, 8+2*(8+PageSize))
	want[0] = 2
	want[8] = 0x1
	want[16] = 8 ^ 7
	want[16+PageSize] = 0x90
	want[24+PageSize] = 1
	if !bytes.Equal(b, want) {
		t.Fatalf("delta is %d bytes; want page 0x1 XORed with ref's and page 0x90 as it is", len(b))
	}
	img, err := ReadDelta(bytes.NewReader(b), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialized(t, img), serialized(t, m)) {
		t.Error("ReadDelta(WriteDelta(m)) differs from m")
	}
	img.Write8(0x1000, 9) // the image is copy-on-write: ref does not see it
	if ref.Read8(0x1000) != 7 || m.Read8(0x1000) != 8 {
		t.Error("a write to the decoded image reached ref or m")
	}

	zeroXOR := append([]byte(nil), b...)
	clear(zeroXOR[16:][:PageSize])
	if _, err := ReadDelta(bytes.NewReader(zeroXOR), ref); err == nil {
		t.Error("ReadDelta accepted an all-zero XOR page")
	}
	zeroRaw := append([]byte(nil), b...)
	clear(zeroRaw[24+PageSize:][:PageSize]) // a created page may hold zeros
	if _, err := ReadDelta(bytes.NewReader(zeroRaw), ref); err != nil {
		t.Errorf("ReadDelta refused a zero page ref lacks: %v", err)
	}
	swapped := append([]byte(nil), b...)
	swapped[8], swapped[16+PageSize] = 0x90, 0x1
	if _, err := ReadDelta(bytes.NewReader(swapped), ref); err == nil {
		t.Error("ReadDelta accepted page indices out of order")
	}
	if err := d.WriteDelta(io.Discard, New(), ref); err == nil {
		t.Error("WriteDelta accepted a memory without ref's pages")
	}
}

// TestDeserializeRejectsTruncated: over an empty memory, a delta is
// Serialize's image, and ReadDelta is what reads it back; cut inside any
// field — the count, a page index, a page's bytes — it is refused.
func TestDeserializeRejectsTruncated(t *testing.T) {
	m := New()
	m.Write64(0, 1)
	m.Write64(0x90000, 2)
	whole := serialized(t, m)
	for _, n := range []int{0, 7, 8, 15, 16, 16 + PageSize - 1, len(whole) - 10, len(whole) - 1} {
		if _, err := ReadDelta(bytes.NewReader(whole[:n]), New()); err == nil {
			t.Errorf("ReadDelta over an empty memory accepted %d of %d bytes", n, len(whole))
		}
	}
	if img, err := ReadDelta(bytes.NewReader(whole), New()); err != nil || !bytes.Equal(serialized(t, img), whole) {
		t.Errorf("ReadDelta over an empty memory does not read Serialize back (err %v)", err)
	}
}

// TestResetFromOneImageConcurrently: several goroutines, each with a memory
// of its own, Reset it from one checkpoint image again and again and write
// every page, half of them new. Under -race (make race) this is the check
// that a Reset only reads the image; each round must read back exactly its
// own writes over the image's bytes, never a recycled frame's old contents
// or another goroutine's, and the image must serialize as it did before.
func TestResetFromOneImageConcurrently(t *testing.T) {
	const pages, workers, rounds = 8, 4, 20
	src := New()
	for p := uint64(0); p < pages; p++ {
		src.Write64(p*PageSize, p+1)
		src.Write64(p*PageSize+PageSize/2, p+1)
	}
	img := src.Fork()
	before := serialized(t, img)

	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := uint64(1); g <= workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New()
			for r := uint64(0); r < rounds; r++ {
				m.Reset(img)
				mark := g<<48 | r<<32
				for p := uint64(0); p < 2*pages; p++ {
					m.Write64(p*PageSize+8, mark|p)
				}
				for p := uint64(0); p < 2*pages; p++ {
					var want uint64 // an image page keeps its bytes, a new one is zeros
					if p < pages {
						want = p + 1
					}
					if got := m.Read64(p * PageSize); got != want {
						errs <- fmt.Errorf("worker %d round %d: page %d reads %#x at 0, want %#x", g, r, p, got, want)
						return
					}
					if got := m.Read64(p*PageSize + 8); got != mark|p {
						errs <- fmt.Errorf("worker %d round %d: page %d reads %#x, wrote %#x", g, r, p, got, mark|p)
						return
					}
					if got := m.Read64(p*PageSize + PageSize/2); got != want {
						errs <- fmt.Errorf("worker %d round %d: page %d reads %#x mid-page, want %#x", g, r, p, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(serialized(t, img), before) {
		t.Error("the image changed under concurrent Resets")
	}
}

// TestResetRecyclesOwnedFrames: after the first round, a memory Reset from
// one image and written on the same pages again allocates nothing — its
// map, TLB and page frames are the last round's — and a Reset never hands
// out a frame the image, or an earlier fork of it, still holds.
func TestResetRecyclesOwnedFrames(t *testing.T) {
	src := New()
	for p := uint64(0); p < 4; p++ {
		src.Write64(p*PageSize, p+1)
	}
	img := src.Fork()
	other := img.Fork()
	m := New()
	round := func() {
		m.Reset(img)
		for p := uint64(0); p < 8; p++ { // four copies, four creations
			m.Write64(p*PageSize+8, p)
		}
	}
	round()
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("a later round allocates %v times", a)
	}
	for k, r := range m.pages {
		if r.page == img.pages[k].page || r.page == other.pages[k].page {
			t.Errorf("page %#x is written in a frame the image shares", k)
		}
	}
	if m.Read64(5*PageSize) != 0 || other.Read64(8) != 0 || img.Read64(8) != 0 {
		t.Error("a recycled frame kept an earlier round's bytes")
	}
}
