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
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Eight pages, the last two colliding in the TLB with the first two.
		pages := [8]uint64{0, 1, 2, 3, 4, 5, tlbSize, tlbSize + 1}
		addr := func() uint64 {
			a := pages[next()%8] << PageBits
			if off := next(); off < 64 {
				return a + PageSize - 1 - uint64(off%8) // the page's last bytes
			} else {
				return a + uint64(off)*13%PageSize
			}
		}
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
			var b bytes.Buffer
			if err := m.Serialize(&b); err != nil {
				t.Fatal(err)
			}
			if !want.matches(b.Bytes()) {
				t.Fatalf("%s does not serialize to its model", what)
			}
		}
		for ops := 0; len(data) > 0 && ops < 200; ops++ {
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
