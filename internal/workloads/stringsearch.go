package workloads

import "fmt"

// stringsearch mirrors MiBench's stringsearch: Boyer–Moore–Horspool search
// of many patterns over a text corpus. The scan is load-dominated with a
// data-dependent skip distance, pressuring the memory issue queue — the
// paper calls out Stringsearch (with Dijkstra) as the top Memory Issue Unit
// consumer.

func init() { register("stringsearch", buildStringsearch) }

func stringsearchParams(s Scale) (corpus, patterns, reps int64) {
	switch s {
	case ScaleTiny:
		return 6 << 10, 6, 1
	case ScalePaper:
		return 64 << 10, 64, 28
	}
	return 24 << 10, 24, 2
}

// bmhRef is the Boyer–Moore–Horspool search mirrored by the kernel; it
// returns the sum of all match positions (and counts matches).
func bmhRef(text, pat []byte) (posSum uint64, matches uint64) {
	m := len(pat)
	var skip [256]int64
	for i := range skip {
		skip[i] = int64(m)
	}
	for i := 0; i < m-1; i++ {
		skip[pat[i]] = int64(m - 1 - i)
	}
	for i := int64(0); i+int64(m) <= int64(len(text)); {
		j := m - 1
		for j >= 0 && text[i+int64(j)] == pat[j] {
			j--
		}
		if j < 0 {
			posSum += uint64(i)
			matches++
			i++
			continue
		}
		i += skip[text[i+int64(m)-1]]
	}
	return posSum, matches
}

func buildStringsearch(s Scale) (*Workload, error) {
	corpusLen, patterns, reps := stringsearchParams(s)

	// Corpus: pseudo-random lowercase text with spaces (27-symbol alphabet,
	// skewed so repeats occur and BMH skips vary).
	corpus := make([]byte, corpusLen)
	l := newLCG(0x57E)
	for i := range corpus {
		r := l.next32() % 27
		if r == 26 {
			corpus[i] = ' '
		} else {
			corpus[i] = byte('a' + r%13) // halve the alphabet: more matches
		}
	}
	// Patterns: substrings of the corpus (guaranteed hits), length 6..13,
	// and their length table (one byte each), appended after the patterns.
	const patLen = 16 // allocated slot per pattern
	patSeg := make([]byte, int64(patLen)*patterns)
	lenSeg := make([]byte, patterns)
	for p := int64(0); p < patterns; p++ {
		n := 6 + int64(l.next32()%8)
		off := int64(l.next32()) % (corpusLen - n)
		copy(patSeg[p*patLen:], corpus[off:off+n])
		lenSeg[p] = byte(n)
	}

	// Reference.
	ref := func() uint64 {
		var acc uint64
		for r := int64(0); r < reps; r++ {
			for p := int64(0); p < patterns; p++ {
				pos, m := bmhRef(corpus, patSeg[p*patLen:p*patLen+int64(lenSeg[p])])
				acc += pos + m*uint64(p+1)
			}
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ CORPUS,   %d
	.equ CLEN,     %d
	.equ PATS,     %d
	.equ PATLEN,   %d
	.equ PLENS,    %d
	.equ NPATS,    %d
	.equ REPS,     %d
	.data
skip:
	.space 2048            # 256 × 8-byte skip table
	.text
	li   s0, REPS
	li   s3, 0             # checksum
rep_loop:
	li   s1, 0             # pattern index
pat_loop:
	# s4 = &pat, s5 = m (pattern length)
	li   t0, PATLEN
	mul  s4, s1, t0
	li   t0, PATS
	add  s4, s4, t0
	li   t0, PLENS
	add  t0, t0, s1
	lbu  s5, 0(t0)

	# build skip table: skip[*] = m; skip[pat[i]] = m-1-i for i < m-1
	la   t0, skip
	li   t1, 256
fill:
	sd   s5, 0(t0)
	addi t0, t0, 8
	addi t1, t1, -1
	bnez t1, fill
	li   t1, 0             # i
	addi t2, s5, -1        # m-1
fill2:
	bge  t1, t2, fill2_done
	add  t3, s4, t1
	lbu  t3, 0(t3)         # pat[i]
	slli t3, t3, 3
	la   t4, skip
	add  t3, t3, t4
	sub  t5, t2, t1        # m-1-i
	sd   t5, 0(t3)
	addi t1, t1, 1
	j    fill2
fill2_done:

	# scan: i in 0 .. CLEN-m
	li   s6, 0             # i
	li   s7, CLEN
	sub  s7, s7, s5        # last valid start
	li   s8, CORPUS
scan:
	bgt  s6, s7, pat_done
	addi t0, s5, -1        # j = m-1
cmp:
	bltz t0, match
	add  t1, s6, t0
	add  t1, t1, s8
	lbu  t1, 0(t1)         # text[i+j]
	add  t2, s4, t0
	lbu  t2, 0(t2)         # pat[j]
	bne  t1, t2, mismatch
	addi t0, t0, -1
	j    cmp
match:
	add  s3, s3, s6        # posSum += i
	addi t0, s1, 1
	add  s3, s3, t0        # matches × (p+1)
	addi s6, s6, 1
	j    scan
mismatch:
	add  t1, s6, s5
	addi t1, t1, -1
	add  t1, t1, s8
	lbu  t1, 0(t1)         # text[i+m-1]
	slli t1, t1, 3
	la   t2, skip
	add  t1, t1, t2
	ld   t1, 0(t1)
	add  s6, s6, t1
	j    scan
pat_done:
	addi s1, s1, 1
	li   t0, NPATS
	bne  s1, t0, pat_loop
	addi s0, s0, -1
	bnez s0, rep_loop
	mv   a0, s3
`+exitSeq, ExtraBase, corpusLen, ExtraBase+corpusLen,
		patLen, ExtraBase+corpusLen+int64(patLen)*patterns, patterns, reps)

	segs := []Segment{
		{Addr: ExtraBase, Bytes: corpus},
		{Addr: ExtraBase + uint64(corpusLen), Bytes: patSeg},
		{Addr: ExtraBase + uint64(corpusLen) + uint64(int64(patLen)*patterns), Bytes: lenSeg},
	}
	return &Workload{
		Name:     "stringsearch",
		Suite:    "MiBench",
		Scale:    s,
		Source:   src,
		Segments: segs,
		ref:      ref,
	}, nil
}
