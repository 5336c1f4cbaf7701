package workloads

import (
	"fmt"
	"math/bits"
)

// bitcount mirrors MiBench's bitcnts: five different bit-counting methods
// run over streams of pseudo-random 64-bit values. The five phases have
// distinct instruction mixes (serial shift loop, Kernighan loop, SWAR
// arithmetic, byte-table lookups, nibble-table lookups), which gives the
// workload visible SimPoint phases and, like the original, lots of
// independent integer work (high ILP).

func init() { register("bitcount", buildBitcount) }

func bitcountN(s Scale) int64 {
	switch s {
	case ScaleTiny:
		return 250
	case ScalePaper:
		return 800_000
	}
	return 8_000
}

func buildBitcount(s Scale) (*Workload, error) {
	n := bitcountN(s)

	// Byte and nibble popcount tables, poked as a segment.
	tab := make([]byte, 256+16)
	for i := 0; i < 256; i++ {
		tab[i] = byte(bits.OnesCount8(uint8(i)))
	}
	for i := 0; i < 16; i++ {
		tab[256+i] = byte(bits.OnesCount8(uint8(i)))
	}

	// Go reference: the five methods all compute popcount; each phase uses
	// its own seed so wrong phase attribution changes the checksum.
	ref := func() uint64 {
		var acc uint64
		for phase := uint64(1); phase <= 5; phase++ {
			l := newLCG(phase * 0x9E3779B9)
			for i := int64(0); i < n; i++ {
				v := l.next()
				acc += phase * uint64(bits.OnesCount64(v))
			}
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ N,      %d
	.equ TAB8,   %d
	.equ TAB4,   %d
	.text
	li   s10, %d           # lcg multiplier
	li   s11, %d           # lcg increment
	li   s3, 0             # checksum accumulator

	# ---- phase 1: serial shift-and-mask ----
	li   s2, 0x9E3779B9    # seed = 1*0x9E3779B9
	li   s0, N
p1_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2
	li   t1, 0
p1_bits:
	andi t2, t0, 1
	add  t1, t1, t2
	srli t0, t0, 1
	bnez t0, p1_bits
	add  s3, s3, t1        # weight 1
	addi s0, s0, -1
	bnez s0, p1_loop

	# ---- phase 2: Kernighan x &= x-1 ----
	li   t3, 0x9E3779B9
	slli s2, t3, 1         # seed = 2*0x9E3779B9
	li   s0, N
p2_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2
	li   t1, 0
p2_bits:
	beqz t0, p2_done
	addi t2, t0, -1
	and  t0, t0, t2
	addi t1, t1, 1
	j    p2_bits
p2_done:
	slli t1, t1, 1         # weight 2
	add  s3, s3, t1
	addi s0, s0, -1
	bnez s0, p2_loop

	# ---- phase 3: SWAR parallel popcount ----
	li   t3, 0x9E3779B9
	li   t4, 3
	mul  s2, t3, t4        # seed = 3*0x9E3779B9
	li   s0, N
	li   s4, 0x5555555555555555
	li   s5, 0x3333333333333333
	li   s6, 0x0F0F0F0F0F0F0F0F
	li   s7, 0x0101010101010101
p3_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2
	srli t1, t0, 1
	and  t1, t1, s4
	sub  t0, t0, t1
	srli t1, t0, 2
	and  t1, t1, s5
	and  t0, t0, s5
	add  t0, t0, t1
	srli t1, t0, 4
	add  t0, t0, t1
	and  t0, t0, s6
	mul  t0, t0, s7
	srli t0, t0, 56
	li   t5, 3
	mul  t0, t0, t5        # weight 3
	add  s3, s3, t0
	addi s0, s0, -1
	bnez s0, p3_loop

	# ---- phase 4: byte-table lookup ----
	li   t3, 0x9E3779B9
	slli s2, t3, 2         # seed = 4*0x9E3779B9
	li   s0, N
	li   s5, TAB8
p4_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2
	li   t1, 0
	li   t6, 8
p4_bytes:
	andi t2, t0, 0xFF
	add  t2, t2, s5
	lbu  t2, 0(t2)
	add  t1, t1, t2
	srli t0, t0, 8
	addi t6, t6, -1
	bnez t6, p4_bytes
	slli t1, t1, 2         # weight 4
	add  s3, s3, t1
	addi s0, s0, -1
	bnez s0, p4_loop

	# ---- phase 5: nibble-table lookup ----
	li   t3, 0x9E3779B9
	li   t4, 5
	mul  s2, t3, t4        # seed = 5*0x9E3779B9
	li   s0, N
	li   s5, TAB4
p5_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2
	li   t1, 0
	li   t6, 16
p5_nibbles:
	andi t2, t0, 0xF
	add  t2, t2, s5
	lbu  t2, 0(t2)
	add  t1, t1, t2
	srli t0, t0, 4
	addi t6, t6, -1
	bnez t6, p5_nibbles
	li   t5, 5
	mul  t1, t1, t5        # weight 5
	add  s3, s3, t1
	addi s0, s0, -1
	bnez s0, p5_loop

	mv   a0, s3
`+exitSeq, n, ExtraBase, ExtraBase+256, int64(lcgMul), int64(lcgInc))

	return &Workload{
		Name:     "bitcount",
		Suite:    "MiBench",
		Scale:    s,
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: tab}},
		ref:      ref,
	}, nil
}
