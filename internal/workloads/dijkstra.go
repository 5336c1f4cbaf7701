package workloads

import (
	"encoding/binary"
	"fmt"
)

// dijkstra mirrors MiBench's dijkstra_large, which is queue-driven (SPFA
// style) rather than a min-scan: vertices are dequeued from a work queue and
// all V edges into the vertex are relaxed, enqueueing every improvement.
// The adjacency matrix is stored column-major (weights into vertex i in
// column i), so relaxing one vertex strides across cache lines of a matrix
// that exceeds the L1D at every scale. Nearly every integer instruction
// then waits behind a missing load — which keeps the integer issue queue
// full at low IPC, the behaviour the paper's Fig. 8 contrasts against Sha.

func init() { register("dijkstra", buildDijkstra) }

// V=600 puts the adjacency matrix at 1.44 MiB — beyond the 1 MiB L2 — so
// the column-strided relax loop runs at DRAM latency, which is what drives
// the full-issue-queue, low-IPC behaviour of Fig. 8. Tiny scale keeps the
// same column-walk against the L2 only.
func dijkstraParams(s Scale) (v, sources int64) {
	switch s {
	case ScaleTiny:
		return 160, 1
	case ScalePaper:
		return 600, 6
	}
	return 600, 1
}

const dijkstraInf = 0x7FFFFFFF

// dijkstraRef mirrors the kernel exactly, including queue order.
func dijkstraRef(adj []uint32, v int64, start int64) []uint32 {
	dist := make([]uint32, v)
	for i := range dist {
		dist[i] = dijkstraInf
	}
	dist[start] = 0
	queue := []int64{start}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		dv := dist[node]
		for i := int64(0); i < v; i++ {
			w := adj[i*v+node] // column-major: stride-V walk
			if w == 0 {
				continue
			}
			nd := dv + w
			if nd < dist[i] {
				dist[i] = nd
				queue = append(queue, i)
			}
		}
	}
	return dist
}

func buildDijkstra(s Scale) (*Workload, error) {
	v, sources := dijkstraParams(s)
	w, err := buildDijkstraWith(v, sources)
	if err != nil {
		return nil, err
	}
	w.Scale = s
	return w, nil
}

func buildDijkstraWith(v, sources int64) (*Workload, error) {

	// Dense graph with pseudo-random weights 1..999 (no self edges), as the
	// little-endian u32 matrix the kernel reads.
	seg := make([]byte, 4*v*v)
	l := newLCG(0xD1C)
	for i := int64(0); i < v; i++ {
		for j := int64(0); j < v; j++ {
			if i == j {
				continue
			}
			binary.LittleEndian.PutUint32(seg[4*(i*v+j):], l.next32()%999+1)
		}
	}

	ref := func() uint64 {
		adj := make([]uint32, v*v)
		for i := range adj {
			adj[i] = binary.LittleEndian.Uint32(seg[4*i:])
		}
		var acc uint64
		for src := int64(0); src < sources; src++ {
			for _, d := range dijkstraRef(adj, v, src%v) {
				acc += uint64(d)
			}
		}
		return acc
	}

	// Work-queue ring: power-of-two capacity well above the worst-case
	// outstanding entries (bounded by total improvements in flight).
	const qCapLog = 17

	src := fmt.Sprintf(`
	.equ V,       %d
	.equ SOURCES, %d
	.equ ADJ,     %d
	.equ QBASE,   %d
	.equ QMASK,   %d
	.equ INF,     %d
	.data
dist:
	.space %d
	.text
	li   s0, 0             # source counter
	li   s3, 0             # checksum
src_loop:
	li   t0, V
	remu s1, s0, t0        # start vertex

	# dist[i] = INF, dist[start] = 0
	la   t0, dist
	li   t2, V
	li   t3, INF
init:
	sw   t3, 0(t0)
	addi t0, t0, 4
	addi t2, t2, -1
	bnez t2, init
	la   t0, dist
	slli t1, s1, 2
	add  t0, t0, t1
	sw   zero, 0(t0)

	# queue: ring of u32 vertex ids; s4 = head, s5 = tail
	li   s4, 0
	li   s5, 0
	li   s6, QBASE
	li   s7, QMASK
	la   s8, dist
	# push(start)
	and  t0, s5, s7
	slli t0, t0, 2
	add  t0, t0, s6
	sw   s1, 0(t0)
	addi s5, s5, 1

work_loop:
	beq  s4, s5, src_done  # queue empty
	and  t0, s4, s7
	slli t0, t0, 2
	add  t0, t0, s6
	lwu  t1, 0(t0)         # node
	addi s4, s4, 1
	slli t2, t1, 2
	add  t2, t2, s8
	lwu  s9, 0(t2)         # dv = dist[node]
	# t3 = &adj[0][node] (column walk, stride V*4), t4 = &dist[0]
	slli t3, t1, 2
	li   t0, ADJ
	add  t3, t3, t0
	mv   t4, s8
	li   s2, V*4           # column stride
	li   s10, V
	li   s11, 0            # i
relax:
	lwu  t5, 0(t3)         # w = adj[i][node]
	beqz t5, relax_next
	add  t5, t5, s9        # nd = dv + w
	lwu  t6, 0(t4)         # dist[i]
	bgeu t5, t6, relax_next
	sw   t5, 0(t4)         # improve
	# push(i)
	and  t0, s5, s7
	slli t0, t0, 2
	add  t0, t0, s6
	sw   s11, 0(t0)
	addi s5, s5, 1
relax_next:
	add  t3, t3, s2
	addi t4, t4, 4
	addi s11, s11, 1
	addi s10, s10, -1
	bnez s10, relax
	j    work_loop

src_done:
	# accumulate dist[]
	la   t0, dist
	li   t1, V
acc_loop:
	lwu  t2, 0(t0)
	add  s3, s3, t2
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, acc_loop

	addi s0, s0, 1
	li   t0, SOURCES
	bne  s0, t0, src_loop
	mv   a0, s3
`+exitSeq, v, sources, ExtraBase, ExtraBase+4*v*v, (1<<qCapLog)-1, dijkstraInf, 4*v)

	return &Workload{
		Name:     "dijkstra",
		Suite:    "MiBench",
		Source:   src,
		Segments: []Segment{{Addr: ExtraBase, Bytes: seg}},
		ref:      ref,
	}, nil
}

// BuildDijkstraCustom builds a dijkstra instance with explicit parameters,
// used by model-calibration tests and the ablation benches. It bypasses
// Build's interval resolution, so it pins IntervalSize itself.
func BuildDijkstraCustom(v, sources int64) (*Workload, error) {
	w, err := buildDijkstraWith(v, sources)
	if err != nil {
		return nil, err
	}
	w.IntervalSize = DefaultInterval(ScaleDefault)
	return w, nil
}
