// Package mem provides the sparse 64-bit physical memory shared by the
// functional simulator, the checkpoint machinery and the workload loaders.
// Memory is allocated lazily in fixed-size pages so that multi-gigabyte
// address spaces with a few megabytes of live data stay cheap, and so that
// checkpoints serialize only the touched pages.
//
// Pages are copy-on-write. A Memory writes in place only the pages it owns
// (the ones it created or copied itself); Fork shares every page between
// two memories and leaves both owning none, so a fork costs one map copy
// and each side then copies only the pages it writes. The same ownership
// gives a history for free: Mark disowns every page, so the first write to
// a page after a mark replaces it and the replaced page is kept, and Image
// rebuilds the memory as it stood at any mark from those kept pages. And it
// makes page frames reusable: Reset turns a memory back into a fork, and
// the pages it owned, which nothing else references, become the frames its
// next copies and creations are made in.
package mem

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"
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
	wkey uint64 // key when the Memory owns the page (a write may hit), else noPage
	page *[PageSize]byte
}

// noTLB is the TLB of every Memory that has not been accessed yet: all
// entries empty, shared, never written. Checkpoint images are built, forked
// and serialized without a single access, so they never pay for a table of
// their own; the first miss gives a Memory its private one.
var noTLB = func() *[tlbSize]tlbEntry {
	t := new([tlbSize]tlbEntry)
	for i := range t {
		t[i].key, t[i].wkey = noPage, noPage
	}
	return t
}()

// pageRef is one page of a Memory's map. own says the Memory may write the
// page in place: it created or copied the page itself and has not shared
// it since (Fork, Mark). A page no one owns is never written again.
type pageRef struct {
	page *[PageSize]byte
	own  bool
}

// undo is one entry of a history's log: the page key held before the first
// write to it after a mark, nil when the write created the page.
type undo struct {
	key  uint64
	page *[PageSize]byte
}

// history is what Record starts: one log for every mark, and where each
// mark begins in it.
type history struct {
	log   []undo
	marks []int // marks[i] is len(log) at Mark i
}

// Memory is a sparse byte-addressable memory. The zero value is not usable;
// call New.
//
// A Memory is not safe for concurrent use, reads included: every access may
// fill the TLB. A Memory that owns no page — a checkpoint image from Fork,
// Image or ReadDelta that is only ever forked — is only read by Fork,
// Serialize, WriteDelta and PageCount, so those may run concurrently on it (a
// checkpoint image is forked by several measuring goroutines at once).
type Memory struct {
	pages map[uint64]pageRef

	// Invariant: an entry whose key is not noPage holds pages[key].page,
	// and its wkey is key exactly when pages[key].own. A page is replaced
	// in the map only by its own Memory's copy-on-write, in the same miss
	// that refills its entry; Fork and Mark clear every wkey when they
	// disown the pages; Reset drops the table with the map it clears.
	tlb *[tlbSize]tlbEntry

	hist *history // nil unless Record started one

	// spare holds the frames of pages m owned when Reset dropped them;
	// miss takes one before allocating. No one references a spare frame.
	spare []*[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]pageRef), tlb: noTLB}
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

// touch returns the page holding addr for writing: created if need be, and
// copied first if m does not own it.
func (m *Memory) touch(addr uint64) *[PageSize]byte {
	key := addr >> PageBits
	if e := &m.tlb[key&tlbMask]; e.wkey == key {
		return e.page
	}
	return m.miss(key, true)
}

func (m *Memory) miss(key uint64, write bool) *[PageSize]byte {
	r := m.pages[key]
	if write && !r.own {
		// Copy-on-write (or creation): the page r held is no longer m's
		// to change, so m's copy replaces it and the history, if any,
		// keeps it.
		if m.hist != nil {
			m.hist.log = append(m.hist.log, undo{key: key, page: r.page})
		}
		var p *[PageSize]byte
		if n := len(m.spare); n > 0 {
			p, m.spare = m.spare[n-1], m.spare[:n-1]
			if r.page == nil {
				*p = [PageSize]byte{} // a created page reads as zeros
			}
		} else {
			p = new([PageSize]byte)
		}
		if r.page != nil {
			*p = *r.page
		}
		r = pageRef{page: p, own: true}
		m.pages[key] = r
	} else if r.page == nil {
		return nil
	}
	if m.tlb == noTLB {
		m.tlb = new([tlbSize]tlbEntry)
		*m.tlb = *noTLB
	}
	e := tlbEntry{key: key, wkey: noPage, page: r.page}
	if r.own {
		e.wkey = key
	}
	m.tlb[key&tlbMask] = e
	return r.page
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

// Fork returns a memory with m's contents. The two share every page and
// own none of them afterwards, so each side copies a page on its first
// write to it and nothing written on one side shows on the other. Forking
// a memory that owns no page only reads it.
func (m *Memory) Fork() *Memory {
	m.disown()
	return &Memory{pages: maps.Clone(m.pages), tlb: noTLB}
}

// Reset makes m a fork of base again, as Fork would return it, reusing
// m's map and TLB, and drops any history; a nil base leaves m empty, as
// New returns it. The pages m owned go on its spare list and later copies
// and creations are made in them: an owned page is referenced by m alone,
// so only m's next writes can reach its frame. Like Fork, Reset only reads
// a base that owns no page, so several memories may be Reset from one
// checkpoint image at once. base must not be m.
func (m *Memory) Reset(base *Memory) {
	m.spare = slices.Grow(m.spare, len(m.pages)) // one allocation at most
	for _, r := range m.pages {
		if r.own {
			m.spare = append(m.spare, r.page)
		}
	}
	clear(m.pages)
	if base != nil {
		base.disown()
		maps.Copy(m.pages, base.pages)
	}
	if m.tlb != noTLB {
		*m.tlb = *noTLB
	}
	m.hist = nil
}

// disown gives up ownership of every page m owns, so its next write to
// each copies it first. It writes nothing when m owns no page.
func (m *Memory) disown() {
	for k, r := range m.pages {
		if r.own {
			m.pages[k] = pageRef{page: r.page}
		}
	}
	if m.tlb != noTLB {
		for i := range m.tlb {
			if e := &m.tlb[i]; e.wkey != noPage {
				e.wkey = noPage
			}
		}
	}
}

// Record starts a history of m, dropping any earlier one: from the first
// Mark on, every page m replaces is kept, so Image can rebuild m as it
// stood at each mark. The history holds the pre-image of each page written
// between two marks; it lives as long as m.
func (m *Memory) Record() { m.hist = &history{} }

// Mark notes m's current contents in the history Record started and
// returns the mark's number (0 for the first, then 1, 2, …). It disowns
// every page, so the first write to a page after the mark logs the page it
// replaces (or that it created the page).
func (m *Memory) Mark() int {
	m.hist.marks = append(m.hist.marks, len(m.hist.log))
	m.disown()
	return len(m.hist.marks) - 1
}

// Image returns m as it stood at mark, as a memory that owns no page: it
// starts from m's current map and undoes the log back to the mark. The
// latest mark costs a map copy; an earlier one also costs the pages
// written since.
func (m *Memory) Image(mark int) *Memory {
	m.disown()
	img := &Memory{pages: maps.Clone(m.pages), tlb: noTLB}
	log := m.hist.log
	for i := len(log) - 1; i >= m.hist.marks[mark]; i-- {
		if u := log[i]; u.page == nil {
			delete(img.pages, u.key)
		} else {
			img.pages[u.key] = pageRef{page: u.page}
		}
	}
	return img
}

// A DeltaWriter writes memories as XOR deltas against a reference memory
// (WriteDelta), the format ReadDelta reads back. It XORs every stored page
// through one page buffer it keeps, so a delta allocates nothing per page.
type DeltaWriter struct {
	page [PageSize]byte // one stored page, XORed with its reference
	keys []uint64       // the indices of one delta's stored pages
	hdr  [8]byte
}

// WriteDelta writes to w the pages of m that ref lacks or whose bytes
// differ from ref's: a uint64 page count, then per page, in increasing
// index order, a uint64 page index and PageSize bytes — the page XORed with
// ref's page at that index, or the page as it is where ref has none. The
// words a write left alone XOR to zero runs, which a compressor shrinks.
// m must hold every page ref holds — a memory never drops a page, so one
// that started as ref does — or WriteDelta fails. It only reads m and ref.
func (d *DeltaWriter) WriteDelta(w io.Writer, m, ref *Memory) error {
	for k := range ref.pages {
		if _, ok := m.pages[k]; !ok {
			return fmt.Errorf("mem: page %#x of the reference is missing", k)
		}
	}
	d.keys = d.keys[:0]
	for k, r := range m.pages {
		if b, ok := ref.pages[k]; !ok || (b.page != r.page && *b.page != *r.page) {
			d.keys = append(d.keys, k)
		}
	}
	slices.Sort(d.keys)
	if err := d.u64(w, uint64(len(d.keys))); err != nil {
		return err
	}
	for _, k := range d.keys {
		if err := d.u64(w, k); err != nil {
			return err
		}
		p := m.pages[k].page
		if b, ok := ref.pages[k]; ok {
			subtle.XORBytes(d.page[:], p[:], b.page[:])
			p = &d.page
		}
		if _, err := w.Write(p[:]); err != nil {
			return err
		}
	}
	return nil
}

func (d *DeltaWriter) u64(w io.Writer, v uint64) error {
	binary.LittleEndian.PutUint64(d.hdr[:], v)
	_, err := w.Write(d.hdr[:])
	return err
}

// ReadDelta reads a delta in WriteDelta's format from r and returns a fork
// of ref with each stored page XORed back over ref's page at its index, or
// added as stored where ref has none: a memory that owns no page. It
// refuses page indices that do not strictly increase and an all-zero XOR
// page at an index ref holds, neither of which WriteDelta writes, so a
// delta it accepts is the WriteDelta of what it returns against ref,
// byte for byte.
func ReadDelta(r io.Reader, ref *Memory) (*Memory, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("mem: reading page count: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<24 {
		return nil, fmt.Errorf("mem: unreasonable page count %d", n)
	}
	img := ref.Fork()
	var prev uint64
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("mem: reading page %d index: %w", i, err)
		}
		key := binary.LittleEndian.Uint64(hdr[:])
		if i > 0 && key <= prev {
			return nil, fmt.Errorf("mem: page %d index %#x does not follow %#x", i, key, prev)
		}
		prev = key
		p := new([PageSize]byte)
		if _, err := io.ReadFull(r, p[:]); err != nil {
			return nil, fmt.Errorf("mem: reading page %d data: %w", i, err)
		}
		if b, ok := ref.pages[key]; ok {
			if *p == ([PageSize]byte{}) {
				return nil, fmt.Errorf("mem: page %#x equals the reference's", key)
			}
			subtle.XORBytes(p[:], p[:], b.page[:])
		}
		img.pages[key] = pageRef{page: p}
	}
	return img, nil
}

// Serialize writes the touched pages to w: a delta against an empty
// memory (WriteDelta), that is a uint64 page count, then per page, in
// increasing index order, a uint64 page index followed by PageSize raw
// bytes.
func (m *Memory) Serialize(w io.Writer) error {
	var d DeltaWriter
	return d.WriteDelta(w, m, New())
}
