package rv64

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// decodeAcceptanceDigest pins what Decode makes of every opcode × funct3 ×
// funct7 × rs2 combination under two rd/rs1 patterns, and of 2^20 seeded
// random words: whether it accepts each word, and the fields it returns.
// Error text is left out. A change to the set of accepted words, laxness
// included, or to any decoded field moves it.
const decodeAcceptanceDigest = "57cbc7bf3176ae6667dc67eba5d9ba9606a52e4a3d531f0c0a14f157603308b4"

func TestDecodeAcceptanceDigest(t *testing.T) {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	add := func(raw uint32) {
		in, err := Decode(raw)
		ok := byte(0)
		if err == nil {
			ok = 1
		}
		buf = binary.LittleEndian.AppendUint32(buf, raw)
		buf = append(buf, ok, in.Rd, in.Rs1, in.Rs2, in.Rs3)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(in.Op))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Imm))
		if len(buf) > cap(buf)-32 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for _, r := range [][2]uint32{{0, 0}, {31, 17}} {
		rd, rs1 := r[0], r[1]
		for v := uint32(0); v < 1<<22; v++ {
			opcode, f3, f7, rs2 := v&0x7F, v>>7&7, v>>10&0x7F, v>>17&31
			add(opcode | rd<<7 | f3<<12 | rs1<<15 | rs2<<20 | f7<<25)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		add(rng.Uint32())
	}
	h.Write(buf)
	if got := hex.EncodeToString(h.Sum(nil)); got != decodeAcceptanceDigest {
		t.Fatalf("decode acceptance digest %s, want %s", got, decodeAcceptanceDigest)
	}
}

// TestDecodePatternsDisjoint: no word matches the fixed bits of two Ops, so
// the order Decode scans an opcode's Ops in cannot matter, and every Op has
// exactly one pattern.
func TestDecodePatternsDisjoint(t *testing.T) {
	var all []pattern
	for _, bucket := range patterns {
		all = append(all, bucket...)
	}
	if len(all) != int(numOps)-1 {
		t.Fatalf("%d patterns for %d Ops", len(all), numOps-1)
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if (a.bits^b.bits)&a.mask&b.mask == 0 {
				t.Errorf("%v and %v share a word: %#08x/%#08x vs %#08x/%#08x",
					a.op, b.op, a.bits, a.mask, b.bits, b.mask)
			}
		}
	}
}

// FuzzDecode: a word Decode accepts matches the fixed bits of exactly one
// Op, the one it decodes to, and re-encoding what it decoded decodes to the
// same instruction; a word it rejects matches no Op.
func FuzzDecode(f *testing.F) {
	for _, c := range knownEncodings {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, raw uint32) {
		in, err := Decode(raw)
		var matched []Op
		for _, bucket := range patterns {
			for _, p := range bucket {
				if raw&p.mask == p.bits {
					matched = append(matched, p.op)
				}
			}
		}
		if err != nil {
			if len(matched) != 0 {
				t.Fatalf("%#08x rejected (%v) but matches %v", raw, err, matched)
			}
			return
		}
		if len(matched) != 1 || matched[0] != in.Op {
			t.Fatalf("%#08x decodes to %v but matches %v", raw, in.Op, matched)
		}
		re, err := Encode(in)
		if err != nil {
			t.Fatalf("%#08x decodes to %+v, which does not encode: %v", raw, in, err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("%#08x re-encodes to %#08x, which does not decode: %v", raw, re, err)
		}
		if again.Raw = in.Raw; again != in {
			t.Fatalf("%#08x decodes to %+v, its re-encoding %#08x to %+v", raw, in, re, again)
		}
	})
}
