package workloads

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// shaRounds generates the 80 fully unrolled SHA-1 rounds. Register roles
// (a..e) rotate through t0..t4 each round — the same transformation an
// optimizing compiler applies to the MiBench source — so there are no move
// instructions or call/return breaks on the critical path. The recurrence
// depth per round is ~4 ops, which is what lets BOOM extract the paper's
// high Sha IPC.
func shaRounds() string {
	regs := [5]string{"t0", "t1", "t2", "t3", "t4"}
	roles := [5]int{0, 1, 2, 3, 4} // positions of a,b,c,d,e in regs
	var sb strings.Builder
	lastK := int64(-1)
	for i := 0; i < 80; i++ {
		a, b, cc, d, e := regs[roles[0]], regs[roles[1]], regs[roles[2]], regs[roles[3]], regs[roles[4]]
		var k int64
		switch {
		case i < 20:
			k = 0x5A827999
		case i < 40:
			k = 0x6ED9EBA1
		case i < 60:
			k = -0x70E44324 // 0x8F1BBCDC sign-extended to 32 bits
		default:
			k = -0x359D3E2A // 0xCA62C1D6
		}
		if k != lastK {
			fmt.Fprintf(&sb, "\tli   a2, %d\n", k)
			lastK = k
		}
		// a1 = w[i] + k + e  (independent of the a-chain)
		fmt.Fprintf(&sb, "\tlw   a1, %d(s9)\n", 4*i)
		sb.WriteString("\taddw a1, a1, a2\n")
		fmt.Fprintf(&sb, "\taddw a1, a1, %s\n", e)
		// t6 = f(b, c, d)
		switch {
		case i < 20:
			fmt.Fprintf(&sb, "\tand  t5, %s, %s\n", b, cc)
			fmt.Fprintf(&sb, "\tnot  t6, %s\n", b)
			fmt.Fprintf(&sb, "\tand  t6, t6, %s\n", d)
			sb.WriteString("\tor   t6, t5, t6\n")
		case i < 40, i >= 60:
			fmt.Fprintf(&sb, "\txor  t6, %s, %s\n", b, cc)
			fmt.Fprintf(&sb, "\txor  t6, t6, %s\n", d)
		default:
			fmt.Fprintf(&sb, "\tand  t5, %s, %s\n", b, cc)
			fmt.Fprintf(&sb, "\tand  t6, %s, %s\n", b, d)
			sb.WriteString("\tor   t5, t5, t6\n")
			fmt.Fprintf(&sb, "\tand  t6, %s, %s\n", cc, d)
			sb.WriteString("\tor   t6, t5, t6\n")
		}
		sb.WriteString("\taddw a1, a1, t6\n")
		// new a (into e's register) = rol5(a) + a1
		fmt.Fprintf(&sb, "\tslliw t5, %s, 5\n", a)
		fmt.Fprintf(&sb, "\tsrliw t6, %s, 27\n", a)
		sb.WriteString("\tor   t5, t5, t6\n")
		fmt.Fprintf(&sb, "\taddw %s, t5, a1\n", e)
		// c' = rol30(b), in place
		fmt.Fprintf(&sb, "\tslliw t5, %s, 30\n", b)
		fmt.Fprintf(&sb, "\tsrliw t6, %s, 2\n", b)
		fmt.Fprintf(&sb, "\tor   %s, t5, t6\n", b)
		// Rotate roles: (a,b,c,d,e) ← (t→old e reg, a, rol30(b), c, d).
		roles = [5]int{roles[4], roles[0], roles[1], roles[2], roles[3]}
	}
	return sb.String()
}

// shaRoundsText is shaRounds generated once per process: the text depends
// on nothing, and regenerating it was 70 % of a default-scale sha Build.
var shaRoundsText = sync.OnceValue(shaRounds)

// sha mirrors MiBench's sha (SHA-1): the full FIPS-180 compression function
// run over a pseudo-random corpus, with the five-word chaining state carried
// across blocks. Only the final padding block of the original is omitted —
// the hot loop (message schedule + 80 rounds) is identical, which is what
// gives sha its paper-visible character: integer-ALU-dominated with high
// ILP and the highest IPC of the suite.

func init() { register("sha", buildSHA) }

func shaBlocks(s Scale) int64 {
	switch s {
	case ScaleTiny:
		return 64
	case ScalePaper:
		return 65_000
	}
	return 3_000
}

// sha1Compress is FIPS-180 SHA-1 over one 64-byte block (big-endian words),
// mirrored in the assembly kernel.
func sha1Compress(h *[5]uint32, block []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[4*i:])
	}
	for i := 16; i < 80; i++ {
		x := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = x<<1 | x>>31
	}
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f, k = b&c|^b&d, 0x5A827999
		case i < 40:
			f, k = b^c^d, 0x6ED9EBA1
		case i < 60:
			f, k = b&c|b&d|c&d, 0x8F1BBCDC
		default:
			f, k = b^c^d, 0xCA62C1D6
		}
		t := (a<<5 | a>>27) + f + e + k + w[i]
		e, d, c, b, a = d, c, b<<30|b>>2, a, t
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
}

func buildSHA(s Scale) (*Workload, error) {
	blocks := shaBlocks(s)

	// Corpus: 64 blocks of pseudo-random bytes, iterated cyclically.
	const corpusBlocks = 64
	corpus := make([]byte, corpusBlocks*64)
	l := newLCG(0x5AA)
	for i := 0; i < len(corpus); i += 8 {
		binary.LittleEndian.PutUint64(corpus[i:], l.next())
	}

	// Reference digest and checksum.
	ref := func() uint64 {
		h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
		for b := int64(0); b < blocks; b++ {
			off := (b % corpusBlocks) * 64
			sha1Compress(&h, corpus[off:off+64])
		}
		acc := uint64(h[0])
		for i := 1; i < 5; i++ {
			acc = acc*31 + uint64(h[i])
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ BLOCKS,  %d
	.equ CORPUS,  %d
	.equ CMASK,   %d        # corpusBlocks-1 (power of two)
	.data
wbuf:
	.space 320              # 80-entry message schedule
	.text
	# chaining state in s4..s8
	li   s4, 0x67452301
	li   s5, 0xEFCDAB89
	li   s6, 0x98BADCFE
	li   s7, 0x10325476
	li   s8, 0xC3D2E1F0
	li   s0, 0              # block index
	li   s1, BLOCKS
	la   s9, wbuf
blk_loop:
	andi t0, s0, CMASK
	slli t0, t0, 6
	li   t1, CORPUS
	add  s2, t1, t0         # block pointer

	# ---- message schedule: w[0..15] = big-endian load ----
	li   t0, 0              # i
ws_le:
	slli t1, t0, 2
	add  t2, s2, t1
	lbu  t3, 0(t2)          # big-endian assemble
	slli t3, t3, 8
	lbu  t4, 1(t2)
	or   t3, t3, t4
	slli t3, t3, 8
	lbu  t4, 2(t2)
	or   t3, t3, t4
	slli t3, t3, 8
	lbu  t4, 3(t2)
	or   t3, t3, t4
	add  t2, s9, t1
	sw   t3, 0(t2)
	addi t0, t0, 1
	li   t5, 16
	bne  t0, t5, ws_le

	# ---- w[16..79] = rol1(w[i-3]^w[i-8]^w[i-14]^w[i-16]) ----
ws_ext:
	slli t1, t0, 2
	add  t2, s9, t1
	lw   t3, -12(t2)
	lw   t4, -32(t2)
	xor  t3, t3, t4
	lw   t4, -56(t2)
	xor  t3, t3, t4
	lw   t4, -64(t2)
	xor  t3, t3, t4
	slliw t4, t3, 1
	srliw t3, t3, 31
	or   t3, t3, t4
	sw   t3, 0(t2)
	addi t0, t0, 1
	li   t5, 80
	bne  t0, t5, ws_ext

	# ---- 80 fully unrolled rounds; a..e live in t0..t4 ----
	mv   t0, s4
	mv   t1, s5
	mv   t2, s6
	mv   t3, s7
	mv   t4, s8
%s
	addw s4, s4, t0
	addw s5, s5, t1
	addw s6, s6, t2
	addw s7, s7, t3
	addw s8, s8, t4

	addi s0, s0, 1
	beq  s0, s1, blk_done   # unrolled body exceeds branch range: use j back
	j    blk_loop
blk_done:

	# checksum = fold(h0..h4) with masked 32-bit words
	li   t6, 0xFFFFFFFF
	and  a0, s4, t6
	li   t5, 31
	mul  a0, a0, t5
	and  t0, s5, t6
	add  a0, a0, t0
	mul  a0, a0, t5
	and  t0, s6, t6
	add  a0, a0, t0
	mul  a0, a0, t5
	and  t0, s7, t6
	add  a0, a0, t0
	mul  a0, a0, t5
	and  t0, s8, t6
	add  a0, a0, t0
`+exitSeq, blocks, ExtraBase, corpusBlocks-1, shaRoundsText())

	return &Workload{
		Name:     "sha",
		Suite:    "MiBench",
		Scale:    s,
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: corpus}},
		ref:      ref,
	}, nil
}
