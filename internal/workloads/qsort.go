package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// qsort mirrors MiBench's qsort: recursive quicksort (Lomuto partition) over
// an array of float64 keys. The FP compares keep the FP pipeline mildly
// busy — the paper groups Qsort with FFT/iFFT as the only FP-register-file
// users — while the swap traffic works the LSU.

func init() { register("qsort", buildQsort) }

func qsortK(s Scale) int64 {
	switch s {
	case ScaleTiny:
		return 1_200
	case ScalePaper:
		return 55_000
	}
	return 28_000
}

func buildQsort(s Scale) (*Workload, error) {
	k := qsortK(s)

	seg := make([]byte, 8*k)
	l := newLCG(0x450)
	for i := int64(0); i < k; i++ {
		v := float64(l.next()>>11) / (1 << 53) // [0,1), distinct w.h.p.
		binary.LittleEndian.PutUint64(seg[8*i:], math.Float64bits(v))
	}

	// Reference: the sorted order is unique for distinct keys, so any sort
	// yields the kernel's final array. Positional checksum with exact FP ops
	// (×2^32 is exact; the convert truncates toward zero in both worlds).
	ref := func() uint64 {
		sorted := make([]float64, k)
		for i := range sorted {
			sorted[i] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*i:]))
		}
		sort.Float64s(sorted)
		var acc uint64
		for i, v := range sorted {
			acc += uint64(i+1) * uint64(int64(v*4294967296.0))
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ ARR, %d
	.equ K,   %d
	.text
	li   s7, ARR
	li   a0, 0             # lo
	li   a1, K-1           # hi
	call qsort

	# positional checksum
	li   a0, 0
	li   t0, 0             # i
	li   t5, 1
	slli t5, t5, 32
	fcvt.d.l fa3, t5       # 2^32
ck_loop:
	slli t1, t0, 3
	add  t1, t1, s7
	fld  fa0, 0(t1)
	fmul.d fa0, fa0, fa3
	fcvt.l.d t2, fa0
	addi t3, t0, 1
	mul  t2, t2, t3
	add  a0, a0, t2
	addi t0, t0, 1
	li   t1, K
	bne  t0, t1, ck_loop
	j    done

	# qsort(a0=lo, a1=hi): Lomuto partition, recursive.
qsort:
	bge  a0, a1, qret
	slli t0, a1, 3
	add  t0, t0, s7
	fld  fa0, 0(t0)        # pivot = a[hi]
	addi t1, a0, -1        # i
	mv   t2, a0            # j
part:
	slli t3, t2, 3
	add  t3, t3, s7
	fld  fa1, 0(t3)        # a[j]
	flt.d t4, fa1, fa0
	beqz t4, noswap
	addi t1, t1, 1
	slli t5, t1, 3
	add  t5, t5, s7
	fld  fa2, 0(t5)        # a[i]
	fsd  fa1, 0(t5)
	fsd  fa2, 0(t3)
noswap:
	addi t2, t2, 1
	blt  t2, a1, part
	# place pivot: swap a[i+1] and a[hi]
	addi t1, t1, 1
	slli t5, t1, 3
	add  t5, t5, s7
	fld  fa2, 0(t5)
	fsd  fa0, 0(t5)
	slli t6, a1, 3
	add  t6, t6, s7
	fsd  fa2, 0(t6)
	# recurse: qsort(lo, p-1); qsort(p+1, hi)
	addi sp, sp, -24
	sd   ra, 0(sp)
	sd   a1, 8(sp)
	sd   t1, 16(sp)
	addi a1, t1, -1
	call qsort
	ld   t1, 16(sp)
	addi a0, t1, 1
	ld   a1, 8(sp)
	call qsort
	ld   ra, 0(sp)
	addi sp, sp, 24
qret:
	ret
done:
`+exitSeq, ExtraBase, k)

	return &Workload{
		Name:     "qsort",
		Suite:    "MiBench",
		Scale:    s,
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: seg}},
		ref:      ref,
	}, nil
}
