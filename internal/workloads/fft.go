package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
)

// fft mirrors MiBench's FFT: an iterative radix-2 Cooley–Tukey transform
// over N complex doubles, repeated with a 1/N rescale per pass so values
// stay bounded. ifft is the inverse transform (conjugate twiddles). Both are
// FP-multiply/add dominated and are the workloads that light up the FP issue
// queue and FP register file in Figs. 5–7.
//
// The Go reference below executes the identical operation sequence, so the
// checksum (a fold over the raw IEEE-754 bits) must match bit-exactly.

func init() {
	register("fft", func(s Scale) (*Workload, error) { return buildFFT(s, false) })
	register("ifft", func(s Scale) (*Workload, error) { return buildFFT(s, true) })
}

func fftParams(s Scale) (n, reps int64) {
	switch s {
	case ScaleTiny:
		return 256, 2
	case ScalePaper:
		return 16384, 95
	}
	return 2048, 10
}

// fftRef performs one in-place pass exactly as the kernel does.
func fftRef(re, im, wre, wim []float64, rev []uint32) {
	n := len(re)
	for i := 0; i < n; i++ {
		j := int(rev[i])
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for base := 0; base < n; base += size {
			for k := 0; k < half; k++ {
				t := k * step
				wr, wi := wre[t], wim[t]
				a, b := base+k, base+k+half
				tr := re[b]*wr - im[b]*wi
				ti := re[b]*wi + im[b]*wr
				re[b] = re[a] - tr
				im[b] = im[a] - ti
				re[a] = re[a] + tr
				im[a] = im[a] + ti
			}
		}
	}
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		re[i] *= invN
		im[i] *= invN
	}
}

func buildFFT(s Scale, inverse bool) (*Workload, error) {
	n, reps := fftParams(s)

	// Input signal: deterministic mixture, identical for fft and ifft apart
	// from the seed.
	seed := uint64(0xFF7)
	name := "fft"
	if inverse {
		seed = 0x1FF7
		name = "ifft"
	}
	// Memory layout (all offsets from ExtraBase, in bytes):
	// RE: 0, IM: 8N, WRE: 16N, WIM: 20N, REV: 24N, INVN: 28N.
	seg := make([]byte, 28*n+8)
	le := binary.LittleEndian
	putF := func(off int64, v float64) { le.PutUint64(seg[off:], math.Float64bits(v)) }
	getF := func(off int64) float64 { return math.Float64frombits(le.Uint64(seg[off:])) }
	l := newLCG(seed)
	for i := int64(0); i < n; i++ {
		putF(8*i, float64(l.next()>>11)/(1<<53)-0.5)
		putF(8*n+8*i, float64(l.next()>>11)/(1<<53)-0.5)
	}

	// Twiddles: w_k = exp(∓2πik/N); inverse uses the conjugate.
	for k := int64(0); k < n/2; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		putF(16*n+8*k, math.Cos(ang))
		if inverse {
			putF(20*n+8*k, math.Sin(ang))
		} else {
			putF(20*n+8*k, -math.Sin(ang))
		}
	}

	// Bit-reversal table.
	bitsN := 0
	for 1<<bitsN < int(n) {
		bitsN++
	}
	for i := int64(0); i < n; i++ {
		var r uint32
		for b := 0; b < bitsN; b++ {
			r |= uint32(i>>uint(b)&1) << uint(bitsN-1-b)
		}
		le.PutUint32(seg[24*n+4*i:], r)
	}
	putF(28*n, 1/float64(n))

	// Reference run + checksum, over the inputs read back from the segment.
	ref := func() uint64 {
		re, im := make([]float64, n), make([]float64, n)
		wre, wim := make([]float64, n/2), make([]float64, n/2)
		rev := make([]uint32, n)
		for i := int64(0); i < n; i++ {
			re[i], im[i] = getF(8*i), getF(8*n+8*i)
			rev[i] = le.Uint32(seg[24*n+4*i:])
		}
		for k := int64(0); k < n/2; k++ {
			wre[k], wim[k] = getF(16*n+8*k), getF(20*n+8*k)
		}
		for r := int64(0); r < reps; r++ {
			fftRef(re, im, wre, wim, rev)
		}
		var acc uint64
		for i := int64(0); i < n; i++ {
			acc = acc*31 + math.Float64bits(re[i])
			acc = acc*31 + math.Float64bits(im[i])
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ N,     %d
	.equ REPS,  %d
	.equ RE,    %d
	.equ IM,    %d
	.equ WRE,   %d
	.equ WIM,   %d
	.equ REV,   %d
	.equ INVN,  %d
	.text
	li   s4, RE
	li   s5, IM
	li   s6, WRE
	li   s7, WIM
	li   s0, REPS
rep_loop:
	# ---- bit-reversal permutation ----
	li   t0, 0             # i
	li   t6, REV
br_loop:
	slli t1, t0, 2
	add  t1, t1, t6
	lwu  t1, 0(t1)         # j
	bge  t0, t1, br_next   # only swap when i < j
	slli t2, t0, 3
	slli t3, t1, 3
	add  t4, s4, t2
	add  t5, s4, t3
	fld  fa0, 0(t4)
	fld  fa1, 0(t5)
	fsd  fa1, 0(t4)
	fsd  fa0, 0(t5)
	add  t4, s5, t2
	add  t5, s5, t3
	fld  fa0, 0(t4)
	fld  fa1, 0(t5)
	fsd  fa1, 0(t4)
	fsd  fa0, 0(t5)
br_next:
	addi t0, t0, 1
	li   t1, N
	bne  t0, t1, br_loop

	# ---- stages ----
	li   s1, 2             # size
stage_loop:
	srli s2, s1, 1         # half
	li   t0, N
	divu s3, t0, s1        # step
	li   s8, 0             # base
base_loop:
	li   s9, 0             # k
k_loop:
	# twiddle: t = k*step (element), byte offset = t*8
	mul  t0, s9, s3
	slli t0, t0, 3
	add  t1, s6, t0
	fld  fa2, 0(t1)        # wr
	add  t1, s7, t0
	fld  fa3, 0(t1)        # wi
	# a = base+k, b = a+half
	add  t2, s8, s9
	slli t2, t2, 3         # a byte offset
	slli t3, s2, 3
	add  t3, t2, t3        # b byte offset
	add  t4, s4, t3
	fld  fa4, 0(t4)        # re[b]
	add  t5, s5, t3
	fld  fa5, 0(t5)        # im[b]
	# tr = re[b]*wr - im[b]*wi ; ti = re[b]*wi + im[b]*wr
	fmul.d fa6, fa4, fa2
	fmul.d fa7, fa5, fa3
	fsub.d fa6, fa6, fa7   # tr
	fmul.d fa7, fa4, fa3
	fmul.d ft0, fa5, fa2
	fadd.d fa7, fa7, ft0   # ti
	add  t4, s4, t2
	fld  fa4, 0(t4)        # re[a]
	add  t5, s5, t2
	fld  fa5, 0(t5)        # im[a]
	fsub.d ft0, fa4, fa6   # re[a] - tr
	fsub.d ft1, fa5, fa7   # im[a] - ti
	fadd.d fa4, fa4, fa6   # re[a] + tr
	fadd.d fa5, fa5, fa7   # im[a] + ti
	add  t4, s4, t3
	fsd  ft0, 0(t4)        # re[b]
	add  t5, s5, t3
	fsd  ft1, 0(t5)        # im[b]
	add  t4, s4, t2
	fsd  fa4, 0(t4)        # re[a]
	add  t5, s5, t2
	fsd  fa5, 0(t5)        # im[a]
	addi s9, s9, 1
	bne  s9, s2, k_loop
	add  s8, s8, s1
	li   t0, N
	blt  s8, t0, base_loop
	slli s1, s1, 1
	li   t0, N
	ble  s1, t0, stage_loop

	# ---- rescale by 1/N ----
	li   t0, INVN
	fld  fa2, 0(t0)
	li   t0, 0
sc_loop:
	slli t1, t0, 3
	add  t2, s4, t1
	fld  fa0, 0(t2)
	fmul.d fa0, fa0, fa2
	fsd  fa0, 0(t2)
	add  t2, s5, t1
	fld  fa0, 0(t2)
	fmul.d fa0, fa0, fa2
	fsd  fa0, 0(t2)
	addi t0, t0, 1
	li   t1, N
	bne  t0, t1, sc_loop

	addi s0, s0, -1
	bnez s0, rep_loop

	# ---- checksum over raw bits ----
	li   a0, 0
	li   t3, 31
	li   t0, 0
ck_loop:
	slli t1, t0, 3
	add  t2, s4, t1
	fld  fa0, 0(t2)
	fmv.x.d t4, fa0
	mul  a0, a0, t3
	add  a0, a0, t4
	add  t2, s5, t1
	fld  fa0, 0(t2)
	fmv.x.d t4, fa0
	mul  a0, a0, t3
	add  a0, a0, t4
	addi t0, t0, 1
	li   t1, N
	bne  t0, t1, ck_loop
`+exitSeq, n, reps, ExtraBase, ExtraBase+8*n, ExtraBase+16*n,
		ExtraBase+20*n, ExtraBase+24*n, ExtraBase+28*n)

	suite := "MiBench"
	return &Workload{
		Name:     name,
		Suite:    suite,
		Scale:    s,
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: seg}},
		ref:      ref,
	}, nil
}
