package workloads

import "fmt"

// basicmath mirrors MiBench's basicmath: three integer math phases — a
// bit-by-bit integer square root, Euclid's GCD (stressing the divider), and
// polynomial evaluation via Horner's rule (stressing the multiplier). The
// original mixes cubic solving and conversions; the integer kernels here
// keep the same "pure arithmetic, small data" character the paper relies on
// (the FP register file stays idle, as Figs. 5–7 show for Bmath).

func init() { register("basicmath", buildBasicmath) }

func basicmathN(s Scale) int64 {
	switch s {
	case ScaleTiny:
		return 500
	case ScalePaper:
		return 700_000
	}
	return 10_000
}

// isqrtRef is the bit-by-bit method, mirrored exactly in assembly.
func isqrtRef(x uint64) uint64 {
	var res uint64
	bit := uint64(1) << 62
	for bit > x {
		bit >>= 2
	}
	for bit != 0 {
		if x >= res+bit {
			x -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}

func gcdRef(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// basicmathRef is the three phases' checksum over n values each.
func basicmathRef(n int64) uint64 {
	var acc uint64
	// Phase A: integer square roots of pseudo-random values.
	l := newLCG(0xB45)
	for i := int64(0); i < n; i++ {
		acc += isqrtRef(l.next())
	}
	// Phase B: GCDs (divider-heavy).
	l = newLCG(0xB46)
	for i := int64(0); i < n; i++ {
		a := l.next() | 1
		b := l.next() | 1
		acc += 3 * gcdRef(a, b)
	}
	// Phase C: degree-8 Horner evaluation.
	l = newLCG(0xB47)
	var coef [9]uint64
	for i := range coef {
		coef[i] = l.next()
	}
	for i := int64(0); i < n; i++ {
		x := l.next()
		v := coef[8]
		for d := 7; d >= 0; d-- {
			v = v*x + coef[d]
		}
		acc += 5 * v
	}
	return acc
}

func buildBasicmath(s Scale) (*Workload, error) {
	n := basicmathN(s)

	src := fmt.Sprintf(`
	.equ N, %d
	.data
coef:
	.space 72              # 9 coefficients filled by phase C prologue
	.text
	li   s10, %d           # lcg multiplier
	li   s11, %d           # lcg increment
	li   s3, 0             # checksum

	# ---- phase A: bit-by-bit isqrt ----
	li   s2, 0xB45
	li   s0, N
pa_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2            # x
	li   t1, 0             # res
	li   t2, 1
	slli t2, t2, 62        # bit
pa_findbit:
	bleu t2, t0, pa_bits
	srli t2, t2, 2
	j    pa_findbit
pa_bits:
	beqz t2, pa_done
	add  t3, t1, t2        # res + bit
	bltu t0, t3, pa_skip
	sub  t0, t0, t3
	srli t1, t1, 1
	add  t1, t1, t2
	j    pa_next
pa_skip:
	srli t1, t1, 1
pa_next:
	srli t2, t2, 2
	j    pa_bits
pa_done:
	add  s3, s3, t1
	addi s0, s0, -1
	bnez s0, pa_loop

	# ---- phase B: Euclid GCD ----
	li   s2, 0xB46
	li   s0, N
pb_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	ori  t0, s2, 1         # a
	mul  s2, s2, s10
	add  s2, s2, s11
	ori  t1, s2, 1         # b
pb_gcd:
	beqz t1, pb_done
	remu t2, t0, t1
	mv   t0, t1
	mv   t1, t2
	j    pb_gcd
pb_done:
	li   t3, 3
	mul  t0, t0, t3
	add  s3, s3, t0
	addi s0, s0, -1
	bnez s0, pb_loop

	# ---- phase C: Horner polynomial ----
	li   s2, 0xB47
	la   s5, coef
	li   s0, 9             # fill coefficients from the LCG
pc_fill:
	mul  s2, s2, s10
	add  s2, s2, s11
	sd   s2, 0(s5)
	addi s5, s5, 8
	addi s0, s0, -1
	bnez s0, pc_fill
	la   s5, coef
	li   s0, N
pc_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	mv   t0, s2            # x
	ld   t1, 64(s5)        # v = coef[8]
	li   t2, 7             # d
pc_horner:
	mul  t1, t1, t0
	slli t3, t2, 3
	add  t3, t3, s5
	ld   t4, 0(t3)
	add  t1, t1, t4
	addi t2, t2, -1
	bgez t2, pc_horner
	li   t3, 5
	mul  t1, t1, t3
	add  s3, s3, t1
	addi s0, s0, -1
	bnez s0, pc_loop

	mv   a0, s3
`+exitSeq, n, int64(lcgMul), int64(lcgInc))

	return &Workload{
		Name:   "basicmath",
		Suite:  "MiBench",
		Scale:  s,
		Source: src,
		ref:    func() uint64 { return basicmathRef(n) },
	}, nil
}
