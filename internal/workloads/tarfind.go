package workloads

import "fmt"

// tarfind mirrors Embench's tarfind: scan a tar archive, validate each
// 512-byte header (magic check), parse the octal size field, match the file
// name's class tag against a needle, and skip over the file data. The next
// header's address depends on the current header's parsed size — a serial
// pointer chain through an archive far larger than the cache hierarchy —
// and the tag compares are data-random, so the workload is miss- and
// mispredict-bound with the lowest IPC of the suite, exactly as Fig. 10
// shows.

func init() { register("tarfind", buildTarfind) }

// Entry counts keep the accessed header lines (3 cache lines per entry)
// beyond the 1 MiB L2, so every pass walks a DRAM-latency pointer chain —
// the behaviour that gives tarfind the suite's lowest IPC.
func tarfindParams(s Scale) (entries, passes int64) {
	switch s {
	case ScaleTiny:
		return 7000, 2
	case ScalePaper:
		return 9000, 3600
	}
	return 8000, 18
}

const (
	tarNameOff  = 0   // 100-byte name field; class tag at bytes 5..7
	tarTagOff   = 5   // "proj/<tag>/..."
	tarSizeOff  = 124 // 12-byte octal size
	tarMagicOff = 257 // "ustar"
)

// tarfindRef scans the archive once for one 3-byte needle, mirroring the
// kernel: returns Σ(header offsets of matching entries) + match count.
func tarfindRef(arc []byte, needle []byte) uint64 {
	var acc uint64
	off := int64(0)
	for off+512 <= int64(len(arc)) {
		h := arc[off : off+512]
		if string(h[tarMagicOff:tarMagicOff+5]) != "ustar" {
			break
		}
		// Parse the low 4 octal digits (sizes here are < 4096 octal-wise,
		// i.e. < 0o10000); the kernel reads the same fixed positions.
		var size int64
		for i := 7; i < 11; i++ {
			size = size*8 + int64(h[tarSizeOff+i]-'0')
		}
		// Fixed-position class-tag compare.
		if h[tarTagOff] == needle[0] && h[tarTagOff+1] == needle[1] && h[tarTagOff+2] == needle[2] {
			acc += uint64(off) + 1
		}
		off += 512 + (size+511)/512*512
	}
	return acc
}

func buildTarfind(s Scale) (*Workload, error) {
	entries, passes := tarfindParams(s)

	// Build a synthetic archive whose class tags are pseudo-random, so the
	// per-header compare branches carry no learnable pattern. Every entry's
	// class and size are drawn first, so the image is allocated once at its
	// final length (header + data padded to 512 each, then two zero
	// terminator blocks without magic) and filled in place.
	l := newLCG(0x7AF)
	classes := []string{"src", "doc", "img", "bin", "tst", "cfg"}
	type entry struct {
		cls  string
		size int64
	}
	ents := make([]entry, entries)
	arcLen := int64(1024)
	for e := range ents {
		cls := classes[l.next32()%uint32(len(classes))]
		size := int64(l.next32() % 4000)
		ents[e] = entry{cls, size}
		arcLen += 512 + (size+511)/512*512
	}
	arc := make([]byte, arcLen)
	off := int64(0)
	for e, ent := range ents {
		h := arc[off : off+512]
		copy(h[tarNameOff:], fmt.Sprintf("proj/%s/file_%06d.dat", ent.cls, e))
		// 11-digit octal, NUL-terminated (tar convention).
		copy(h[tarSizeOff:], fmt.Sprintf("%011o", ent.size))
		copy(h[tarMagicOff:], "ustar")
		off += 512 + (ent.size+511)/512*512
	}

	// Needles cycle over the class tags; one archive scan per pass.
	needleSlot := int64(8)
	needleSeg := make([]byte, needleSlot*int64(len(classes)))
	for i, c := range classes {
		copy(needleSeg[int64(i)*needleSlot:], c)
	}

	ref := func() uint64 {
		var acc uint64
		for p := int64(0); p < passes; p++ {
			needle := classes[p%int64(len(classes))]
			acc += tarfindRef(arc, []byte(needle))
		}
		return acc
	}

	src := fmt.Sprintf(`
	.equ ARC,     %d
	.equ ARCLEN,  %d
	.equ NEEDLES, %d
	.equ NSLOT,   %d
	.equ NCLS,    %d
	.equ PASSES,  %d
	.text
	li   s0, 0             # pass
	li   s3, 0             # checksum
pass_loop:
	# load the pass's 3-byte needle into s8..s10
	li   t0, NCLS
	remu t0, s0, t0
	li   t1, NSLOT
	mul  t0, t0, t1
	li   t1, NEEDLES
	add  s4, t0, t1
	lbu  s8, 0(s4)
	lbu  s9, 1(s4)
	lbu  s10, 2(s4)

	li   s5, ARC           # current header pointer
	li   s6, ARC
	li   t0, ARCLEN
	add  s6, s6, t0        # end
	li   s11, 'u'          # magic byte, hoisted
hdr_loop:
	addi t0, s5, 512
	bgt  t0, s6, pass_done
	# magic check: 'u','s' of "ustar" at +257
	lbu  t1, 257(s5)
	bne  t1, s11, pass_done
	lbu  t1, 258(s5)
	li   t2, 's'
	bne  t1, t2, pass_done

	# parse the low 4 octal size digits at +124+7..10
	lbu  t1, 131(s5)
	lbu  t2, 132(s5)
	lbu  t3, 133(s5)
	lbu  t4, 134(s5)
	addi t1, t1, -48
	slli t1, t1, 3
	addi t2, t2, -48
	add  t1, t1, t2
	slli t1, t1, 3
	addi t3, t3, -48
	add  t1, t1, t3
	slli t1, t1, 3
	addi t4, t4, -48
	add  s7, t1, t4        # file size

	# class tag compare at fixed offset 5..7 (data-random outcome)
	lbu  t4, 5(s5)
	bne  t4, s8, no_match
	lbu  t4, 6(s5)
	bne  t4, s9, no_match
	lbu  t4, 7(s5)
	bne  t4, s10, no_match
	li   t0, ARC
	sub  t0, s5, t0
	add  s3, s3, t0
	addi s3, s3, 1
no_match:
	# advance: 512 + roundup(size, 512)
	addi t0, s7, 511
	srli t0, t0, 9
	slli t0, t0, 9
	addi t0, t0, 512
	add  s5, s5, t0
	j    hdr_loop
pass_done:
	addi s0, s0, 1
	li   t0, PASSES
	bne  s0, t0, pass_loop
	mv   a0, s3
`+exitSeq, ExtraBase, len(arc), ExtraBase+int64(len(arc)),
		needleSlot, len(classes), passes)

	return &Workload{
		Name:   "tarfind",
		Suite:  "Embench",
		Scale:  s,
		Source: src,
		Segments: []Segment{
			{Addr: ExtraBase, Bytes: arc},
			{Addr: ExtraBase + uint64(len(arc)), Bytes: needleSeg},
		},
		ref: ref,
	}, nil
}
