package workloads

import (
	"encoding/binary"
	"fmt"
)

// matmult mirrors Embench's matmult-int: repeated N×N int32 matrix
// multiplication. The column-strided walk over B streams through the data
// cache, which is why Matmult shows the highest L1D power in the paper
// (Key Takeaway #8 territory).

func init() { register("matmult", buildMatmult) }

// N=80 puts matrix B at 25 KiB: resident in Mega/Large's 32 KiB L1D but
// thrashing MediumBOOM's 16 KiB — the differentiation behind the paper's
// L1D discussion. Tiny scale trades that for speed.
func matmultParams(s Scale) (n, reps int64) {
	switch s {
	case ScaleTiny:
		return 32, 1
	case ScalePaper:
		return 96, 55
	}
	return 80, 3
}

func buildMatmult(s Scale) (*Workload, error) {
	n, reps := matmultParams(s)

	// Input matrices A and B (int32), generated deterministically and
	// stored back to back, followed by room for C.
	seg := make([]byte, 12*n*n)
	l := newLCG(0x3A7)
	for i := int64(0); i < 2*n*n; i++ {
		binary.LittleEndian.PutUint32(seg[4*i:], l.next32()%1000)
	}

	// Reference: C = A×B each rep; accumulate the C sum every rep (C is
	// identical across reps, so the accumulation just scales — but the
	// kernel must actually recompute it, same as the original benchmark).
	ref := func() uint64 {
		ab := make([]int32, 2*n*n)
		for i := range ab {
			ab[i] = int32(binary.LittleEndian.Uint32(seg[4*i:]))
		}
		a, b := ab[:n*n], ab[n*n:]
		var acc uint64
		c := make([]int32, n*n)
		for r := int64(0); r < reps; r++ {
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					var sum int32
					for k := int64(0); k < n; k++ {
						sum += a[i*n+k] * b[k*n+j]
					}
					c[i*n+j] = sum
				}
			}
			for _, v := range c {
				acc += uint64(int64(v))
			}
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ N,     %d
	.equ REPS,  %d
	.equ ABASE, %d
	.equ BBASE, %d
	.equ CBASE, %d
	.text
	li   s0, REPS
	li   s3, 0             # checksum
rep_loop:
	li   s1, 0             # i
i_loop:
	li   s2, 0             # j
j_loop:
	li   t0, 0             # sum
	li   t1, 0             # k
	# t2 = &A[i][0], t3 = &B[0][j]
	li   t4, N
	mul  t2, s1, t4
	slli t2, t2, 2
	li   t5, ABASE
	add  t2, t2, t5
	slli t3, s2, 2
	li   t5, BBASE
	add  t3, t3, t5
k_loop:
	lw   t5, 0(t2)
	lw   t6, 0(t3)
	mulw t5, t5, t6
	addw t0, t0, t5
	addi t2, t2, 4
	li   t6, N*4
	add  t3, t3, t6
	addi t1, t1, 1
	li   t6, N
	bne  t1, t6, k_loop
	# C[i][j] = sum
	li   t4, N
	mul  t5, s1, t4
	add  t5, t5, s2
	slli t5, t5, 2
	li   t6, CBASE
	add  t5, t5, t6
	sw   t0, 0(t5)
	addi s2, s2, 1
	li   t6, N
	bne  s2, t6, j_loop
	addi s1, s1, 1
	li   t6, N
	bne  s1, t6, i_loop

	# accumulate sum of C (as sign-extended words)
	li   t0, CBASE
	li   t1, N*N
sum_loop:
	lw   t2, 0(t0)
	add  s3, s3, t2
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, sum_loop

	addi s0, s0, -1
	bnez s0, rep_loop
	mv   a0, s3
`+exitSeq, n, reps, ExtraBase, ExtraBase+4*n*n, ExtraBase+8*n*n)

	return &Workload{
		Name:     "matmult",
		Suite:    "Embench",
		Scale:    s,
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: seg}},
		ref:      ref,
	}, nil
}
