package mem

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// flatModel is a memory the way the fuzz target sees it: the bytes written
// and the pages they created (a page exists once anything was written to
// it, zeros included, so it serializes).
type flatModel struct {
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newFlatModel() *flatModel {
	return &flatModel{bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
}

func (f *flatModel) clone() *flatModel {
	c := newFlatModel()
	for a, b := range f.bytes {
		c.bytes[a] = b
	}
	for p := range f.pages {
		c.pages[p] = true
	}
	return c
}

func (f *flatModel) write(addr uint64, b []byte) {
	for i, v := range b {
		f.bytes[addr+uint64(i)] = v
		f.pages[(addr+uint64(i))>>PageBits] = true
	}
}

// matches reports whether b, the output of Memory.Serialize, holds exactly
// the model: its pages, its bytes, and zero everywhere else. It looks up
// only the bytes written and the non-zero bytes serialized, not every
// byte of every page.
func (f *flatModel) matches(b []byte) bool {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) != uint64(len(f.pages)) {
		return false
	}
	keys := make([]uint64, 0, len(f.pages))
	for k := range f.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(b) != 8+len(keys)*(8+PageSize) {
		return false
	}
	data := map[uint64][]byte{} // page key → its serialized bytes
	for i, k := range keys {
		rec := b[8+i*(8+PageSize):]
		if binary.LittleEndian.Uint64(rec) != k {
			return false
		}
		data[k] = rec[8 : 8+PageSize]
		for off, v := range data[k] {
			if v != 0 && f.bytes[k<<PageBits+uint64(off)] != v {
				return false
			}
		}
	}
	for a, v := range f.bytes {
		if data[a>>PageBits][a&pageMask] != v {
			return false
		}
	}
	return true
}

// fuzzScript is a fuzz input read a byte at a time; it reads zeros once it
// runs out.
type fuzzScript []byte

func (s *fuzzScript) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// fuzzPages are the eight pages a script addresses, the last two colliding
// in the TLB with the first two.
var fuzzPages = [8]uint64{0, 1, 2, 3, 4, 5, tlbSize, tlbSize + 1}

// addr is an address on one of fuzzPages; for an offset byte below 64 it
// is one of the page's last eight bytes, where a sized access straddles
// into the next page.
func (s *fuzzScript) addr() uint64 {
	a := fuzzPages[s.next()%8] << PageBits
	if off := s.next(); off < 64 {
		return a + PageSize - 1 - uint64(off%8)
	} else {
		return a + uint64(off)*13%PageSize
	}
}

// serialized is m's Serialize output.
func serialized(t *testing.T, m *Memory) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Serialize(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzMemoryFork drives sized writes (a share of them straddling a page
// boundary), bulk writes, reads, Forks written on both sides afterwards and
// a history (Record, Mark, Image) against one flat model per memory: every
// read matches its memory's model, nothing written on one side of a fork
// shows on the other, and each image serializes to its model's bytes at the
// mark — when taken and again at the end, after every later write.
func FuzzMemoryFork(f *testing.F) {
	// Every page written, some across a boundary, between each of four
	// marks; an image of each mark, written on through a fork; writes on
	// both sides of a fork of the live memory.
	var script []byte
	for round := byte(0); round < 4; round++ {
		for pg := byte(0); pg < 8; pg++ {
			off := 100 + round // 13·off into the page; below 64 would straddle
			if pg%3 == 0 {
				off = round
			}
			script = append(script, 0, 0, pg, off, 3, round+1, pg+1, 1, 1, 1, 1, 1, 1)
		}
		script = append(script, 0, 6)
	}
	for k := byte(0); k < 4; k++ {
		script = append(script, 0, 7, k, byte(len(script)), 0, k, 200, 2, 9, 9, 9, 9, 9, 9, 9, 9)
	}
	script = append(script, 0, 5, 0, 0, 2, 150, 3, 7, 7, 7, 7, 7, 7, 7, 7, 99, 0, 2, 150, 3, 8, 8, 8, 8, 8, 8, 8, 8)
	f.Add(script)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0x40, 0x13, 0xfe, 0x81, 0x07, 0x22, 0x35}, 40))
	f.Add(bytes.Repeat([]byte{0x05, 0x00, 0xff, 0x03, 0x06, 0x01, 0x02, 0x04}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzScript(data)
		next, addr := sc.next, sc.addr
		mems := []*Memory{New()}
		models := []*flatModel{newFlatModel()}
		mems[0].Record()
		type taken struct {
			img  *Memory
			want *flatModel
		}
		var marks []*flatModel // model of mems[0] at each mark
		var images []taken
		check := func(m *Memory, want *flatModel, what string) {
			if !want.matches(serialized(t, m)) {
				t.Fatalf("%s does not serialize to its model", what)
			}
		}
		for ops := 0; len(sc) > 0 && ops < 200; ops++ {
			i := int(next()) % len(mems)
			m, model := mems[i], models[i]
			switch op := next() % 8; op {
			case 0, 1: // sized write
				a, size := addr(), 1<<(next()%4)
				v := binary.LittleEndian.Uint64([]byte{next(), next(), next(), next(), next(), next(), next(), next()})
				m.Write(a, size, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				model.write(a, b[:size])
			case 2: // bulk write, across a page boundary at most once
				a, n := addr(), int(next())*16
				b := bytes.Repeat([]byte{next() | 1}, n)
				m.SetBytes(a, b)
				model.write(a, b)
			case 3, 4: // read
				a, size := addr(), 1<<(next()%4)
				var want uint64
				for k := 0; k < size; k++ {
					want |= uint64(model.bytes[a+uint64(k)]) << (8 * k)
				}
				if got := m.Read(a, size); got != want {
					t.Fatalf("op %d: memory %d Read(%#x, %d) = %#x, model %#x", ops, i, a, size, got, want)
				}
			case 5: // fork
				if len(mems) < 6 {
					mems = append(mems, m.Fork())
					models = append(models, model.clone())
				}
			case 6: // mark the recorded memory
				if mems[0].Mark() != len(marks) {
					t.Fatal("marks are not numbered in order")
				}
				marks = append(marks, models[0].clone())
			case 7: // image of a mark, then fork it and write on the fork
				if len(marks) == 0 {
					continue
				}
				k := int(next()) % len(marks)
				img := mems[0].Image(k)
				check(img, marks[k], "image")
				images = append(images, taken{img, marks[k]})
				if len(mems) < 6 {
					mems = append(mems, img.Fork())
					models = append(models, marks[k].clone())
				}
			}
		}
		for i, m := range mems {
			check(m, models[i], "memory")
		}
		for _, im := range images {
			check(im.img, im.want, "image after later writes")
		}
	})
}

// FuzzMemoryReset drives memories that Reset between runs of writes, the
// way a worker slot's CPU is restored from one checkpoint after another,
// against one flat model per memory. The bases are a recorded memory that
// keeps being written, two Images of it and the memories themselves: a
// memory Reset to a base serializes exactly as a fresh Fork of the base
// does, every read matches its memory's model, a page a write creates out
// of a recycled frame reads as zeros beyond the bytes written, and at the
// end no base, image or other memory shows a write it did not make.
func FuzzMemoryReset(f *testing.F) {
	// Four memories written on every page, Reset to each base in turn and
	// written again: the second round's pages come off the spare lists.
	var script []byte
	for round := byte(0); round < 3; round++ {
		for i := byte(0); i < 4; i++ {
			for pg := byte(0); pg < 8; pg++ {
				script = append(script, i, 0, pg, 100+pg, 3, round+1, i+1, pg+1, 1, 1, 1, 1, 1)
			}
			script = append(script, i, 4, round+i, i, 3, 0, 200, 3, i, 6, 200, 2)
		}
	}
	f.Add(script)
	f.Add([]byte{0, 4, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 2, 0, 70, 0, 5, 1, 4, 0, 0, 2, 3, 1, 1, 5, 2})
	// A memory Reset to a base that owns the pages it wrote — another
	// memory, then the live one — and writing them: the base must not see it.
	f.Add([]byte{
		0, 0, 0, 100, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 3, 1, 0, 0, 100, 3, 9, 9, 9, 9, 9, 9, 9, 9,
		0, 5, 7, 100, 9, 2, 2, 4, 0, 2, 0, 7, 100, 3, 5, 5, 5, 5, 5, 5, 5, 5,
	})
	f.Add(bytes.Repeat([]byte{0x02, 0x00, 0x06, 0x81, 0x03, 0x04, 0x07, 0x13, 0x05, 0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzScript(data)
		next, addr := sc.next, sc.addr
		// The bases: live, recorded and written on by the script too, and
		// images of it at two marks.
		live, liveModel := New(), newFlatModel()
		live.Record()
		for k, pg := range fuzzPages[:6] {
			b := bytes.Repeat([]byte{byte(k + 1)}, 64)
			live.SetBytes(pg<<PageBits+uint64(k)*64, b)
			liveModel.write(pg<<PageBits+uint64(k)*64, b)
			if k == 2 || k == 5 {
				live.Mark()
			}
		}
		bases := []*Memory{live, live.Image(0), live.Image(1)}
		baseModels := []*flatModel{liveModel, newFlatModel(), liveModel.clone()}
		for k, pg := range fuzzPages[:3] {
			baseModels[1].write(pg<<PageBits+uint64(k)*64, bytes.Repeat([]byte{byte(k + 1)}, 64))
		}
		images := [2][]byte{serialized(t, bases[1]), serialized(t, bases[2])}
		const n = 4
		mems, models := make([]*Memory, n), make([]*flatModel, n)
		for i := range mems {
			mems[i], models[i] = bases[1+i%2].Fork(), baseModels[1+i%2].clone()
		}
		for ops := 0; len(sc) > 0 && ops < 200; ops++ {
			i := int(next()) % n
			m, model := mems[i], models[i]
			switch op := next() % 7; op {
			case 0, 1: // sized write; a page it creates is zeros elsewhere
				a, size := addr(), 1<<(next()%4)
				v := binary.LittleEndian.Uint64([]byte{next(), next(), next(), next(), next(), next(), next(), next()})
				created := !model.pages[a>>PageBits]
				m.Write(a, size, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				model.write(a, b[:size])
				if created {
					pg := a &^ pageMask
					for off, got := range m.ReadBytes(pg, PageSize) {
						if want := model.bytes[pg+uint64(off)]; got != want {
							t.Fatalf("op %d: created page %#x reads %#x at %#x, model %#x", ops, pg>>PageBits, got, off, want)
						}
					}
				}
			case 2: // bulk write
				a, k := addr(), int(next())*16
				b := bytes.Repeat([]byte{next() | 1}, k)
				m.SetBytes(a, b)
				model.write(a, b)
			case 3: // read
				a, size := addr(), 1<<(next()%4)
				var want uint64
				for k := 0; k < size; k++ {
					want |= uint64(model.bytes[a+uint64(k)]) << (8 * k)
				}
				if got := m.Read(a, size); got != want {
					t.Fatalf("op %d: memory %d Read(%#x, %d) = %#x, model %#x", ops, i, a, size, got, want)
				}
			case 4: // Reset to a base, to another memory or to nothing
				var base *Memory
				want := newFlatModel()
				switch k := int(next()) % (len(bases) + n + 1); {
				case k < len(bases):
					base, want = bases[k], baseModels[k]
				case k < len(bases)+n && k-len(bases) != i:
					base, want = mems[k-len(bases)], models[k-len(bases)]
				}
				m.Reset(base)
				models[i] = want.clone()
				fresh := New() // forked after the Reset: Fork disowns base's pages
				if base != nil {
					fresh = base.Fork()
				}
				if !bytes.Equal(serialized(t, m), serialized(t, fresh)) {
					t.Fatalf("op %d: memory %d Reset differs from a fresh Fork of its base", ops, i)
				}
			case 5: // write the live base
				a, k := addr(), int(next())%64+1
				b := bytes.Repeat([]byte{next() | 0x80}, k)
				live.SetBytes(a, b)
				liveModel.write(a, b)
			case 6: // mark the live base: its pages become shared history
				live.Mark()
			}
		}
		for i, m := range mems {
			if !models[i].matches(serialized(t, m)) {
				t.Fatalf("memory %d does not serialize to its model", i)
			}
		}
		for k, b := range bases {
			if !baseModels[k].matches(serialized(t, b)) {
				t.Fatalf("base %d shows a write a reset memory made", k)
			}
		}
		for k, img := range images {
			if !bytes.Equal(serialized(t, bases[1+k]), img) {
				t.Fatalf("image %d changed after it was taken", k)
			}
		}
	})
}

// FuzzMemoryDelta writes pages at random between the marks of a recorded
// memory — new bytes, bytes a page already held, zeros on a page no one
// wrote yet — and stores each mark's image as a delta against the previous
// one, the first against an empty memory, as a checkpoint payload chains
// its points. Each delta read over the previous decoded image gives the
// mark's image, page for page; written again against that decoded image it
// is the same bytes; and with any page it XORs against a reference page
// zeroed out it is refused.
func FuzzMemoryDelta(f *testing.F) {
	// Every page written between each of four marks, half of them back to
	// the bytes they held; then a mark with no write at all.
	var script []byte
	for round := byte(0); round < 4; round++ {
		for pg := byte(0); pg < 8; pg++ {
			op := byte(0)
			if (pg+round)%2 == 1 {
				op = 2
			}
			script = append(script, op, pg, 100+pg, 8, round+1)
		}
		script = append(script, 3)
	}
	script = append(script, 3)
	f.Add(script)
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 1, 200, 3, 0, 3, 2, 0, 200, 3, 3})
	f.Add(bytes.Repeat([]byte{0x00, 0x05, 0x13, 0x40, 0x07, 0x01, 0x02, 0x81, 0x03}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzScript(data)
		next, addr := sc.next, sc.addr
		m := New()
		m.Record()
		marks := 0
		for ops := 0; len(sc) > 0 && ops < 200; ops++ {
			switch next() % 4 {
			case 0, 1: // new bytes, zeros included
				a, k := addr(), int(next())%64+1
				m.SetBytes(a, bytes.Repeat([]byte{next()}, k))
			case 2: // a page's own bytes written back
				a, k := addr(), int(next())%64+1
				m.SetBytes(a, m.ReadBytes(a, k))
			case 3:
				m.Mark()
				marks++
			}
		}
		m.Mark()
		marks++
		var d DeltaWriter
		ref, decodedRef := New(), New()
		for i := 0; i < marks; i++ {
			img := m.Image(i)
			var b bytes.Buffer
			if err := d.WriteDelta(&b, img, ref); err != nil {
				t.Fatalf("mark %d: %v", i, err)
			}
			delta := b.Bytes()
			got, err := ReadDelta(bytes.NewReader(delta), decodedRef)
			if err != nil {
				t.Fatalf("mark %d: reading its delta: %v", i, err)
			}
			if !bytes.Equal(serialized(t, got), serialized(t, img)) {
				t.Fatalf("mark %d: the delta reads back to a different image", i)
			}
			b.Reset()
			if err := d.WriteDelta(&b, got, decodedRef); err != nil || !bytes.Equal(b.Bytes(), delta) {
				t.Fatalf("mark %d: the decoded image writes a different delta (err %v)", i, err)
			}
			for n, off := binary.LittleEndian.Uint64(delta), 8; n > 0; n, off = n-1, off+8+PageSize {
				if _, ok := decodedRef.pages[binary.LittleEndian.Uint64(delta[off:])]; !ok {
					continue // a page the reference lacks is stored as it is
				}
				zeroed := append([]byte(nil), delta...)
				clear(zeroed[off+8:][:PageSize])
				if _, err := ReadDelta(bytes.NewReader(zeroed), decodedRef); err == nil {
					t.Fatalf("mark %d: an all-zero XOR page was accepted", i)
				}
			}
			ref, decodedRef = img, got
		}
	})
}
