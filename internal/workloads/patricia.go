package workloads

import "fmt"

// patricia mirrors MiBench's patricia: a digital search trie over 32-bit
// keys (the original uses IP addresses) built by insertion and then probed
// by lookups. Every step chases a pointer chosen by one key bit, producing
// the serialized, cache-unfriendly loads the original is known for.

func init() { register("patricia", buildPatricia) }

func patriciaParams(s Scale) (inserts, lookups int64) {
	switch s {
	case ScaleTiny:
		return 700, 1400
	case ScalePaper:
		return 450_000, 900_000
	}
	return 15_000, 30_000
}

// Node layout in the arena: 16 bytes = left u32 index | right u32 index |
// key u32 | pad. Index 0 means nil; the arena slot 0 is the root sentinel.
const patNodeSize = 16

// patTrie is the Go reference for the digital search tree.
type patTrie struct {
	left, right, key []uint32
}

func newPatTrie() *patTrie {
	// Slot 0: root sentinel holding key 0 (never matched because inserted
	// keys are forced nonzero).
	return &patTrie{left: []uint32{0}, right: []uint32{0}, key: []uint32{0}}
}

// insert returns true if a new node was created.
func (t *patTrie) insert(key uint32) bool {
	n := uint32(0)
	for bit := 31; bit >= 0; bit-- {
		if t.key[n] == key {
			return false
		}
		dir := key >> uint(bit) & 1
		var next uint32
		if dir == 0 {
			next = t.left[n]
		} else {
			next = t.right[n]
		}
		if next == 0 {
			idx := uint32(len(t.key))
			t.left = append(t.left, 0)
			t.right = append(t.right, 0)
			t.key = append(t.key, key)
			if dir == 0 {
				t.left[n] = idx
			} else {
				t.right[n] = idx
			}
			return true
		}
		n = next
	}
	return false
}

func (t *patTrie) lookup(key uint32) bool {
	n := uint32(0)
	for bit := 31; bit >= 0; bit-- {
		if t.key[n] == key {
			return true
		}
		var next uint32
		if key>>uint(bit)&1 == 0 {
			next = t.left[n]
		} else {
			next = t.right[n]
		}
		if next == 0 {
			return false
		}
		n = next
	}
	return t.key[n] == key
}

// patriciaRef builds the trie from the insert stream, probes it, and folds
// the created and hit counts exactly as the kernel does.
func patriciaRef(inserts, lookups int64) uint64 {
	trie := newPatTrie()
	var created, hits uint64
	l := newLCG(0x9A7)
	for i := int64(0); i < inserts; i++ {
		key := l.next32() | 1
		if trie.insert(key) {
			created++
		}
	}
	// Lookups: alternate between keys from the inserted stream (hits) and a
	// fresh stream (mostly misses).
	lh := newLCG(0x9A7)
	lm := newLCG(0x777)
	for i := int64(0); i < lookups; i++ {
		var key uint32
		if i&1 == 0 {
			key = lh.next32() | 1
		} else {
			key = lm.next32() | 1
		}
		if trie.lookup(key) {
			hits++
		}
	}
	return created*2654435761 + hits
}

func buildPatricia(s Scale) (*Workload, error) {
	inserts, lookups := patriciaParams(s)
	arenaBytes := (inserts + 8) * patNodeSize

	src := fmt.Sprintf(`
	.equ ARENA,   %d
	.equ INSERTS, %d
	.equ LOOKUPS, %d
	.text
	li   s10, %d           # lcg multiplier
	li   s11, %d           # lcg increment
	# arena slot 0 is the pre-zeroed root sentinel
	li   s4, 1             # next free node index
	li   s5, 0             # created count
	li   s6, 0             # hit count
	li   s7, ARENA

	# ---- insert phase ----
	li   s2, 0x9A7
	li   s0, INSERTS
ins_loop:
	mul  s2, s2, s10
	add  s2, s2, s11
	srli t0, s2, 32
	ori  t0, t0, 1
	li   t5, 0xFFFFFFFF
	and  t0, t0, t5        # key (32-bit, nonzero)
	li   t1, 0             # n = root
	li   t2, 31            # bit
ins_walk:
	slli t3, t1, 4
	add  t3, t3, s7        # &node[n]
	lwu  t4, 8(t3)         # node.key
	beq  t4, t0, ins_next  # duplicate
	srl  t4, t0, t2
	andi t4, t4, 1         # dir
	slli t4, t4, 2
	add  t4, t4, t3        # &child[dir]
	lwu  t6, 0(t4)
	bnez t6, ins_descend
	# allocate node s4: key = t0, children zero (arena pre-zeroed)
	slli t6, s4, 4
	add  t6, t6, s7
	sw   t0, 8(t6)
	sw   s4, 0(t4)         # link
	addi s4, s4, 1
	addi s5, s5, 1
	j    ins_next
ins_descend:
	mv   t1, t6
	addi t2, t2, -1
	bgez t2, ins_walk
ins_next:
	addi s0, s0, -1
	bnez s0, ins_loop

	# ---- lookup phase ----
	li   s2, 0x9A7         # hit stream state
	li   s3, 0x777         # miss stream state
	li   s0, 0             # i
look_loop:
	andi t0, s0, 1
	bnez t0, use_miss
	mul  s2, s2, s10
	add  s2, s2, s11
	srli t0, s2, 32
	j    key_ready
use_miss:
	mul  s3, s3, s10
	add  s3, s3, s11
	srli t0, s3, 32
key_ready:
	ori  t0, t0, 1
	li   t5, 0xFFFFFFFF
	and  t0, t0, t5
	li   t1, 0             # n
	li   t2, 31            # bit
look_walk:
	slli t3, t1, 4
	add  t3, t3, s7
	lwu  t4, 8(t3)
	beq  t4, t0, look_hit
	srl  t4, t0, t2
	andi t4, t4, 1
	slli t4, t4, 2
	add  t4, t4, t3
	lwu  t6, 0(t4)
	beqz t6, look_next     # miss
	mv   t1, t6
	addi t2, t2, -1
	bgez t2, look_walk
	# bit exhausted: final key compare
	slli t3, t1, 4
	add  t3, t3, s7
	lwu  t4, 8(t3)
	bne  t4, t0, look_next
look_hit:
	addi s6, s6, 1
look_next:
	addi s0, s0, 1
	li   t4, LOOKUPS
	bne  s0, t4, look_loop

	# checksum = created*2654435761 + hits
	li   t0, 2654435761
	mul  a0, s5, t0
	add  a0, a0, s6
`+exitSeq, ExtraBase, inserts, lookups, int64(lcgMul), int64(lcgInc))

	return &Workload{
		Name:   "patricia",
		Suite:  "MiBench",
		Scale:  s,
		Source: src,
		Segments: []Segment{
			// Pre-zeroed arena (sparse memory reads zero anyway, but an
			// explicit segment documents the footprint and forces pages in).
			{Addr: ExtraBase, Bytes: make([]byte, arenaBytes)},
		},
		ref: func() uint64 { return patriciaRef(inserts, lookups) },
	}, nil
}
