package simpoint

import (
	"fmt"
	"io"

	"repro/internal/binio"
)

// Binary codec for Result, used by the artifact cache to persist a
// selection without losing the fields the SimPoint 3.0 text formats drop
// (assignments, coverage, k-means statistics). The encoding is canonical:
// re-encoding a decoded Result reproduces the original bytes, which is
// what lets -cache-verify byte-compare cached selections against fresh
// recomputations.

// resultMagic identifies the serialized Result format ("SPRESLT1").
const resultMagic = 0x53505245_534C5431

const maxResultLen = 1 << 28 // sanity bound on decoded slice lengths

// pointBytes is the encoded size of one Point: interval, cluster, weight.
const pointBytes = 3 * 8

// EncodeResult writes res in the binary format read by DecodeResult.
func EncodeResult(w io.Writer, res *Result) error {
	bw := binio.NewWriter(w)
	bw.U64(resultMagic)
	bw.Int(res.K)
	bw.F64(res.Coverage)
	bw.Int(res.Stats.KTried)
	bw.Int(res.Stats.Runs)
	bw.Int(res.Stats.Iterations)
	bw.Bool(res.Stats.Converged)
	bw.Int(len(res.Assignments))
	for _, a := range res.Assignments {
		bw.Int(a)
	}
	encodePoints := func(pts []Point) {
		bw.Int(len(pts))
		for _, p := range pts {
			bw.Int(p.Interval)
			bw.Int(p.Cluster)
			bw.F64(p.Weight)
		}
	}
	encodePoints(res.Points)
	encodePoints(res.Selected)
	return bw.Err()
}

// DecodeResult reads a Result in the format produced by EncodeResult from
// an in-memory input, one that reports its Len as a bytes.Reader does.
func DecodeResult(r io.Reader) (*Result, error) {
	br := binio.NewReader(r)
	if m := br.U64(); br.Err() == nil && m != resultMagic {
		return nil, fmt.Errorf("simpoint: bad result magic %#x", m)
	}
	res := &Result{}
	res.K = br.Int()
	res.Coverage = br.F64()
	res.Stats.KTried = br.Int()
	res.Stats.Runs = br.Int()
	res.Stats.Iterations = br.Int()
	res.Stats.Converged = br.Bool()
	// Slices are sized by what the input can hold (binio.Reader.Alloc),
	// never by a length prefix alone.
	res.Assignments = make([]int, br.Alloc(br.Len(maxResultLen), 8))
	for i := range res.Assignments {
		res.Assignments[i] = br.Int()
	}
	decodePoints := func() []Point {
		pts := make([]Point, br.Alloc(br.Len(maxResultLen), pointBytes))
		for i := range pts {
			pts[i].Interval = br.Int()
			pts[i].Cluster = br.Int()
			pts[i].Weight = br.F64()
		}
		return pts
	}
	res.Points = decodePoints()
	res.Selected = decodePoints()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("simpoint: decoding result: %w", err)
	}
	return res, nil
}
