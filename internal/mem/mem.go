// Package mem provides the sparse 64-bit physical memory shared by the
// functional simulator, the checkpoint machinery and the workload loaders.
// Memory is allocated lazily in fixed-size pages so that multi-gigabyte
// address spaces with a few megabytes of live data stay cheap, and so that
// checkpoints serialize only the touched pages.
package mem

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// PageBits is the log2 of the page size. 4 KiB pages match what the
// checkpointing flow in the paper's Chipyard setup serializes.
const PageBits = 12

// PageSize is the byte size of one lazily allocated page.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// The software TLB: a direct-mapped cache of page pointers in front of the
// page map, so the functional simulator's loads and stores cost an index
// and a compare instead of a map lookup.
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1

	// noPage is a page index no address maps to (indices are below
	// 2^(64-PageBits)); it marks an empty TLB entry.
	noPage = ^uint64(0)
)

type tlbEntry struct {
	key  uint64 // page index, or noPage
	page *[PageSize]byte
}

// noTLB is the TLB of every Memory that has not been accessed yet: all
// entries empty, shared, never written. Checkpoint images are built, cloned
// and serialized without a single access, so they never pay for a table of
// their own; the first miss gives a Memory its private one.
var noTLB = func() *[tlbSize]tlbEntry {
	t := new([tlbSize]tlbEntry)
	for i := range t {
		t[i].key = noPage
	}
	return t
}()

// Memory is a sparse byte-addressable memory. The zero value is not usable;
// call New.
//
// A Memory is not safe for concurrent use, reads included: every access may
// fill the TLB. Clone, Serialize and PageCount touch only the page map and
// may run concurrently with one another (a checkpoint image is cloned by
// several measuring goroutines at once).
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// Invariant: an entry whose key is not noPage holds pages[key]. Pages
	// are only ever added to the map, never removed or swapped one by one,
	// so entries stay true until the whole map is replaced (Deserialize),
	// which drops the table.
	tlb *[tlbSize]tlbEntry
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte), tlb: noTLB}
}

// find returns the page holding addr, or nil for untouched memory. It never
// creates a page: PageCount, and with it every checkpoint's bytes, depends
// on reads leaving the map alone.
func (m *Memory) find(addr uint64) *[PageSize]byte {
	key := addr >> PageBits
	if e := &m.tlb[key&tlbMask]; e.key == key {
		return e.page
	}
	return m.miss(key, false)
}

// touch returns the page holding addr, creating it if need be.
func (m *Memory) touch(addr uint64) *[PageSize]byte {
	key := addr >> PageBits
	if e := &m.tlb[key&tlbMask]; e.key == key {
		return e.page
	}
	return m.miss(key, true)
}

func (m *Memory) miss(key uint64, create bool) *[PageSize]byte {
	p := m.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new([PageSize]byte)
		m.pages[key] = p
	}
	if m.tlb == noTLB {
		m.tlb = new([tlbSize]tlbEntry)
		*m.tlb = *noTLB
	}
	m.tlb[key&tlbMask] = tlbEntry{key: key, page: p}
	return p
}

// ByteAt returns the byte at addr (0 for untouched memory).
func (m *Memory) ByteAt(addr uint64) byte { return m.Read8(addr) }

// SetByte stores one byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) { m.Write8(addr, v) }

// Read8 returns the byte at addr (0 for untouched memory).
func (m *Memory) Read8(addr uint64) uint8 {
	if p := m.find(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Read16 returns the little-endian halfword at addr. Like every sized
// access it may straddle a page boundary.
func (m *Memory) Read16(addr uint64) uint16 {
	off := addr & pageMask
	if off > PageSize-2 {
		return uint16(m.readSplit(addr, 2))
	}
	if p := m.find(addr); p != nil {
		return binary.LittleEndian.Uint16(p[off:])
	}
	return 0
}

// Read32 returns the little-endian word at addr.
func (m *Memory) Read32(addr uint64) uint32 {
	off := addr & pageMask
	if off > PageSize-4 {
		return uint32(m.readSplit(addr, 4))
	}
	if p := m.find(addr); p != nil {
		return binary.LittleEndian.Uint32(p[off:])
	}
	return 0
}

// Read64 returns the little-endian doubleword at addr.
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & pageMask
	if off > PageSize-8 {
		return m.readSplit(addr, 8)
	}
	if p := m.find(addr); p != nil {
		return binary.LittleEndian.Uint64(p[off:])
	}
	return 0
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint64, v uint8) { m.touch(addr)[addr&pageMask] = v }

// Write16 stores v at addr, little-endian.
func (m *Memory) Write16(addr uint64, v uint16) {
	off := addr & pageMask
	if off > PageSize-2 {
		m.writeSplit(addr, 2, uint64(v))
		return
	}
	binary.LittleEndian.PutUint16(m.touch(addr)[off:], v)
}

// Write32 stores v at addr, little-endian.
func (m *Memory) Write32(addr uint64, v uint32) {
	off := addr & pageMask
	if off > PageSize-4 {
		m.writeSplit(addr, 4, uint64(v))
		return
	}
	binary.LittleEndian.PutUint32(m.touch(addr)[off:], v)
}

// Write64 stores v at addr, little-endian.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & pageMask
	if off > PageSize-8 {
		m.writeSplit(addr, 8, v)
		return
	}
	binary.LittleEndian.PutUint64(m.touch(addr)[off:], v)
}

// readSplit and writeSplit go byte by byte: the path of an access that
// straddles a page boundary.
func (m *Memory) readSplit(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Read8(addr+uint64(i))) << (8 * i)
	}
	return v
}

func (m *Memory) writeSplit(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Read returns size bytes starting at addr as a little-endian unsigned
// value. size must be 1, 2, 4 or 8. Accesses may straddle page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(m.Read8(addr))
	case 2:
		return uint64(m.Read16(addr))
	case 4:
		return uint64(m.Read32(addr))
	case 8:
		return m.Read64(addr)
	}
	return m.readSplit(addr, size)
}

// Write stores size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	switch size {
	case 1:
		m.Write8(addr, uint8(v))
	case 2:
		m.Write16(addr, uint16(v))
	case 4:
		m.Write32(addr, uint32(v))
	case 8:
		m.Write64(addr, v)
	default:
		m.writeSplit(addr, size, v)
	}
}

// SetBytes copies b into memory starting at addr.
func (m *Memory) SetBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := min(PageSize-off, uint64(len(b)))
		copy(m.touch(addr)[off:off+n], b[:n])
		addr += n
		b = b[n:]
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice, a page
// chunk at a time (the mirror of SetBytes); untouched pages read as zero.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for b := out; len(b) > 0; {
		off := addr & pageMask
		c := min(PageSize-off, uint64(len(b)))
		if p := m.find(addr); p != nil {
			copy(b[:c], p[off:off+c])
		}
		addr += c
		b = b[c:]
	}
	return out
}

// PageCount reports how many pages have been touched.
func (m *Memory) PageCount() int { return len(m.pages) }

// Clone returns a deep copy, used to fork a pristine workload image for
// multiple simulations.
func (m *Memory) Clone() *Memory {
	c := New()
	for k, p := range m.pages {
		np := new([PageSize]byte)
		*np = *p
		c.pages[k] = np
	}
	return c
}

// Serialize writes the touched pages to w in a deterministic order. The
// format is: uint64 page count, then per page a uint64 page index followed
// by PageSize raw bytes.
func (m *Memory) Serialize(w io.Writer) error {
	keys := make([]uint64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(keys)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, k := range keys {
		binary.LittleEndian.PutUint64(hdr[:], k)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(m.pages[k][:]); err != nil {
			return err
		}
	}
	return nil
}

// Deserialize replaces the contents of m with pages read from r, in the
// format produced by Serialize. Page indices must strictly increase, as
// Serialize writes them, so an accepted image re-serializes byte-exact.
func (m *Memory) Deserialize(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("mem: reading page count: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<24 {
		return fmt.Errorf("mem: unreasonable page count %d", n)
	}
	// The count is a size hint only up to a bound: it is read before any of
	// the pages it promises, so a corrupt one must not size the map.
	m.pages = make(map[uint64]*[PageSize]byte, min(n, 1<<12))
	m.tlb = noTLB // every cached pointer was into the old map
	var prev uint64
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("mem: reading page %d index: %w", i, err)
		}
		key := binary.LittleEndian.Uint64(hdr[:])
		if i > 0 && key <= prev {
			return fmt.Errorf("mem: page %d index %#x does not follow %#x", i, key, prev)
		}
		prev = key
		p := new([PageSize]byte)
		if _, err := io.ReadFull(r, p[:]); err != nil {
			return fmt.Errorf("mem: reading page %d data: %w", i, err)
		}
		m.pages[key] = p
	}
	return nil
}
