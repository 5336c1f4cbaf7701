package core

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/asap7"
	"repro/internal/bbv"
	"repro/internal/binio"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/mav"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// This file threads the content-addressed artifact cache through the flow.
// Each pipeline stage is keyed by a SHA-256 over a canonical encoding of
// everything its output depends on, chained through the upstream stage
// keys:
//
//	bbv        ← workload identity (name, suite, scale, generator output:
//	             source text, data segments) + resolved interval size +
//	             sampling spec
//	select     ← bbv key + resolved simpoint.Config + sampling spec
//	checkpoint ← bbv key + select key + resolved warm-up length
//	measure    ← checkpoint key + boom.Config + asap7.Library
//	full       ← workload identity + boom.Config + asap7.Library
//
// Each stage's payload schema carries its own version; bumping a version
// orphans every entry written under the old schema (never read, the file
// name embeds the version). Payload integrity is the cache's job
// (internal/artifact); payload meaning is versioned here.

// Per-stage schema versions, covering both a stage's key shape and its
// payload format. Bumps to bbv 5 and checkpoint 5 made the payloads hold
// only what the key cannot rebuild; bbv 6 writes sparse entries as
// varints, measure 2 warms a proportional warm-up functionally,
// checkpoint 6 chains each point's pages to the previous point's, and
// checkpoint 7 drops what the selection rebuilds (ckpt.Encode).
const (
	bbvSchema     = 6 // varint sparse vectors; MAV section under a bbv+mav spec
	selectSchema  = 3 // sampling spec in key
	ckptSchema    = 7 // ckpt.Encode of the points against the entry image: registers and image deltas only; flate-compressed body
	measureSchema = 2 // a proportional warm-up warms functionally (boom.Core.Warm) up to a detailed tail
	fullSchema    = 2
	sweepSchema   = 3 // the campaign fingerprint (CampaignID): sampling spec always hashed
)

// maxCachedLen bounds decoded slice lengths (corrupt-payload defense).
const maxCachedLen = 1 << 28

// pointRowLen is the encoded size of one PointResult (four 8-byte fields).
const pointRowLen = 32

// maxCkptRawLen bounds the inflated size of a checkpoint payload, so a
// corrupt entry cannot act as a decompression bomb.
const maxCkptRawLen = 1 << 31

// workloadIdent is every input that determines a workload's committed
// instruction stream: the generator's name and parameters are fully
// captured by the generated source and data segments. The reference
// checksum is a function of those two, so it is not hashed — and a key is
// derived without running the reference (workloads.Workload.Checksum).
type workloadIdent struct {
	Name         string
	Suite        string
	Scale        int
	IntervalSize int64
	Source       string
	Segments     []workloads.Segment
}

func identOf(w *workloads.Workload) workloadIdent {
	return workloadIdent{
		Name:         w.Name,
		Suite:        w.Suite,
		Scale:        int(w.Scale),
		IntervalSize: w.IntervalSize,
		Source:       w.Source,
		Segments:     w.Segments,
	}
}

// profileKeys is the key chain of steps 1–3 for one workload.
type profileKeys struct {
	bbv  artifact.Key
	sel  artifact.Key
	ckpt artifact.Key
}

// profileKeys derives the chain under a sampling spec: the resolved
// interval replaces the workload's implicit one in the identity (it sets
// the committed-stream split), the spec rides in the bbv and select keys
// (features change the BBV payload and the clustering), the select key
// hashes the resolved simpoint.Config so Dims/MaxK overrides count, and the
// checkpoint key hashes the resolved warm-up (policy changes checkpoints).
// Without a cache the chain is zero: every stage just runs.
func (r *Runner) profileKeys(w *workloads.Workload, spec sampling.Spec) profileKeys {
	if r.cache == nil {
		return profileKeys{}
	}
	ident := identOf(w)
	ident.IntervalSize = spec.ResolveInterval(w.IntervalSize)
	var k profileKeys
	k.bbv = artifact.NewKey("bbv", bbvSchema, struct {
		Workload workloadIdent
		Sampling sampling.Spec
	}{ident, spec})
	bbvHex := k.bbv.Hex()
	k.sel = artifact.NewKey("select", selectSchema, struct {
		BBV      string
		Config   simpoint.Config
		Sampling sampling.Spec
	}{bbvHex, r.simpointConfig(spec), spec})
	k.ckpt = artifact.NewKey("checkpoint", ckptSchema, struct {
		BBV         string
		Select      string
		WarmupInsts int64
	}{bbvHex, k.sel.Hex(), spec.ResolveWarmup(ident.IntervalSize, r.fc.WarmupInsts)})
	return k
}

func measureKey(profileKey string, cfg boom.Config, lib asap7.Library) artifact.Key {
	return artifact.NewKey("measure", measureSchema, struct {
		Profile string
		Config  boom.Config
		Lib     asap7.Library
	}{profileKey, cfg, lib})
}

// tickKey names the entry beside a proportional measurement's measure entry
// that records its tick-kernel wall-clock (Result.TickWallNS). An entry
// records one cost, and a measure entry's is the whole measurement's,
// functional warming included. The figure is the entry's 8-byte payload,
// not its cost, since a hit on the measure entry already counts it saved.
func tickKey(measure artifact.Key) artifact.Key {
	return artifact.NewKey("tick", measureSchema, measure.Hex())
}

func fullKey(w *workloads.Workload, cfg boom.Config, lib asap7.Library) artifact.Key {
	return artifact.NewKey("full", fullSchema, struct {
		Workload workloadIdent
		Config   boom.Config
		Lib      asap7.Library
	}{identOf(w), cfg, lib})
}

// stageCached runs one pipeline stage under the cache protocol: lookup →
// decode on hit, compute on miss → atomic write. With verification on, a
// hit additionally recomputes the stage and byte-compares the canonical
// payloads, failing loudly on divergence. The returned cost is the stage's
// compute wall-clock — the cached value on a hit, so cached and uncached
// runs report identical timing — and feeds Profile.WallNS /
// Result.MeasureWallNS.
//
// A zero key disables caching for the call (the stage just runs).
func (r *Runner) stageCached(key artifact.Key,
	decode func(payload []byte) error,
	compute func() error,
	encode func() ([]byte, error)) (costNS int64, err error) {

	var cached []byte
	var cachedCost int64
	hit := false
	if r.cache != nil && key.Stage != "" {
		cached, cachedCost, hit = r.cache.Get(key)
	}
	if hit && !r.verify {
		if decode(cached) == nil {
			return cachedCost, nil
		}
		// Undecodable despite an intact checksum (stale schema logic):
		// fall through, recompute, and overwrite the entry.
		hit = false
	}
	t0 := time.Now()
	if err := compute(); err != nil {
		return 0, err
	}
	computed := time.Since(t0).Nanoseconds()
	if r.cache == nil || key.Stage == "" {
		return computed, nil
	}
	fresh, err := encode()
	if err != nil {
		return 0, fmt.Errorf("encoding %s artifact: %w", key.Stage, err)
	}
	if hit { // verification pass
		if !bytes.Equal(fresh, cached) {
			r.reg.Counter("artifact.verify.fail").Inc()
			return 0, fmt.Errorf("cache verify: artifact %s diverges from recomputation (cached %d bytes, fresh %d bytes)",
				key, len(cached), len(fresh))
		}
		r.reg.Counter("artifact.verify.ok").Inc()
		return cachedCost, nil
	}
	if err := r.cache.Put(key, fresh, computed); err != nil {
		// A failed write is environmental (disk, permissions, injected
		// chaos) — the stage itself computed fine — so mark it retryable.
		return 0, Transient(fmt.Errorf("caching %s artifact: %w", key.Stage, err))
	}
	return computed, nil
}

// wrapStage attaches flow identity to err unless it already carries one.
func wrapStage(stage, workload, config string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Workload: workload, Config: config, Err: err}
}

// --- Stage payload codecs. All are binary and canonical: one value, one
// byte stream, so an accepted payload re-encodes byte-exact.

// maxExactCount is the largest vector count a bbv payload holds: vectors
// store counts as float64, exact only up to 2^53.
const maxExactCount = 1 << 53

// pairLen is the smallest encoded size of one sparse-vector entry: an
// index and a count, a varint each.
const pairLen = 2

// pair is one non-zero entry of a sparse vector.
type pair struct {
	i int
	c uint64
}

// putSparse writes one interval's vector, given as its non-zero entries:
// their count, then the entries, sorted here by index, all as varints.
func putSparse(bw *binio.Writer, ps []pair) {
	slices.SortFunc(ps, func(a, b pair) int { return a.i - b.i })
	bw.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		bw.Uvarint(uint64(p.i))
		bw.Uvarint(p.c)
	}
}

// getSparse inverts putSparse into buf's storage, and returns no entry
// once br has failed. There are at most limit entries, indices must
// strictly increase and stay below limit, and counts must be exact
// non-zero integers, so that what it accepts putSparse writes back
// byte-exact; the entry count sizes nothing until the bytes left can hold
// it.
func getSparse(br *binio.Reader, limit int, buf []pair) []pair {
	m := br.Uvarint()
	if m > uint64(limit) {
		br.Fail("bbv payload: %d entries for %d indices", m, limit)
	}
	n := br.Alloc(int(m), pairLen)
	buf = buf[:0]
	for j := 0; j < n; j++ {
		i, c := br.Uvarint(), br.Uvarint()
		if i >= uint64(limit) || (j > 0 && int(i) <= buf[j-1].i) || c == 0 || c > maxExactCount {
			br.Fail("bbv payload: entry (%d, %d) breaks the index order, the index bound %d or the count range", i, c, limit)
		}
		if br.Err() != nil {
			return buf[:0]
		}
		buf = append(buf, pair{int(i), c})
	}
	return buf
}

// encodeBBVPayloadSpec encodes the profile stage's payload under a
// sampling spec: the instruction and block counts and the interval count,
// then every interval's BBV and — only under a bbv+mav spec, which the key
// fixes — every interval's MAV, each as its non-zero entries (putSparse).
// Counts are the profilers' integers.
func encodeBBVPayloadSpec(vectors []bbv.Vector, mavs []mav.Vector, totalInsts uint64, numBlocks int, spec sampling.Spec) ([]byte, error) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(totalInsts)
	bw.Int(numBlocks)
	bw.Int(len(vectors))
	var ps []pair
	for _, v := range vectors {
		ps = ps[:0]
		for b, c := range v {
			if c != 0 {
				ps = append(ps, pair{b, uint64(c)})
			}
		}
		putSparse(bw, ps)
	}
	if spec.UseMAV() {
		if len(mavs) != len(vectors) {
			return nil, fmt.Errorf("%d MAV intervals for %d BBV intervals", len(mavs), len(vectors))
		}
		for _, m := range mavs {
			ps = ps[:0]
			for f, c := range m {
				if c != 0 {
					ps = append(ps, pair{f, uint64(c)})
				}
			}
			putSparse(bw, ps)
		}
	}
	return buf.Bytes(), bw.Err()
}

// decodeBBVPayloadSpec inverts encodeBBVPayloadSpec. Block indices stay
// below the payload's block count, feature indices below
// mav.NumFeatures.
func decodeBBVPayloadSpec(payload []byte, spec sampling.Spec) (vectors []bbv.Vector, mavs []mav.Vector, totalInsts uint64, numBlocks int, err error) {
	rd := bytes.NewReader(payload)
	br := binio.NewReader(rd)
	totalInsts = br.U64()
	numBlocks = br.Len(maxCachedLen)
	n := br.Len(maxCachedLen)
	vectors = make([]bbv.Vector, br.Alloc(n, 1)) // an interval takes a byte at least: its entry count
	var ps []pair
	for i := range vectors {
		ps = getSparse(br, numBlocks, ps)
		vectors[i] = make(bbv.Vector, len(ps))
		for _, p := range ps {
			vectors[i][p.i] = float64(p.c)
		}
	}
	if spec.UseMAV() {
		mavs = make([]mav.Vector, br.Alloc(n, 1))
		for i := range mavs {
			ps = getSparse(br, mav.NumFeatures, ps)
			for _, p := range ps {
				mavs[i][p.i] = float64(p.c)
			}
		}
	}
	if err := br.Err(); err != nil {
		return nil, nil, 0, 0, err
	}
	if rd.Len() != 0 {
		return nil, nil, 0, 0, fmt.Errorf("bbv payload has %d trailing bytes", rd.Len())
	}
	return vectors, mavs, totalInsts, numBlocks, nil
}

// A checkpoint payload is the points in ckpt.Encode's format, flate-
// compressed at BestSpeed: registers and images only, each image a delta
// against the previous point's, the first against the workload's load
// image, its entry checkpoint's memory (Workload.Entry). The key hashes the
// load image's source and segments, the selection and the warm-up, so the
// decoder starts from the image the encoder did, and rebuilds each point's
// InstRet, Interval and Weight from the selection (shells).
func encodeCkptPayload(cks []*ckpt.Checkpoint, base *mem.Memory) ([]byte, error) {
	var buf bytes.Buffer
	fw := takeCkptWriter(&buf)
	defer putCkptWriter(fw)
	if err := ckpt.Encode(fw, cks, base); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ckptWriters are the flate writers encodeCkptPayload has built, kept
// for reuse through Reset, whose output is byte-identical to a new
// writer's: a writer is ~1 MB of tables, and every profile chain encodes
// one payload. They sit in a list under a mutex, not in a sync.Pool, so
// that no GC empties it and a campaign's allocation does not depend on when
// one runs.
var ckptWriters struct {
	sync.Mutex
	free []*flate.Writer
}

// takeCkptWriter returns a BestSpeed flate writer onto dst: a reused one
// when one is free.
func takeCkptWriter(dst io.Writer) *flate.Writer {
	ckptWriters.Lock()
	defer ckptWriters.Unlock()
	if n := len(ckptWriters.free); n > 0 {
		fw := ckptWriters.free[n-1]
		ckptWriters.free = ckptWriters.free[:n-1]
		fw.Reset(dst)
		return fw
	}
	fw, err := flate.NewWriter(dst, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	return fw
}

// putCkptWriter frees fw for the next payload, pointed away from the one
// it wrote so that it does not keep the payload alive.
func putCkptWriter(fw *flate.Writer) {
	fw.Reset(io.Discard)
	ckptWriters.Lock()
	ckptWriters.free = append(ckptWriters.free, fw)
	ckptWriters.Unlock()
}

// decodeCkptPayload fills the selection's shells (see shells) from the
// payload, each image rebuilt over the previous point's, the first over
// base, the workload's entry image. Inflating stops at maxCkptRawLen, and
// a payload with bytes past its last point is refused.
func decodeCkptPayload(payload []byte, shells []*ckpt.Checkpoint, base *mem.Memory) error {
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	rd := bufio.NewReaderSize(io.LimitReader(fr, maxCkptRawLen), 1<<16)
	if err := ckpt.Decode(rd, shells, base); err != nil {
		return err
	}
	if _, err := rd.ReadByte(); err != io.EOF {
		return fmt.Errorf("checkpoint payload has trailing bytes")
	}
	return nil
}

// encodeResultPayload serializes the measured portion of a Result: the
// identity fields (workload, suite, config, mode) live in the key chain,
// and MeasureWallNS travels as the artifact's cost, not its content.
func encodeResultPayload(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(res.TotalInsts)
	bw.I64(res.IntervalSize)
	bw.Int(res.NumPoints)
	bw.F64(res.Coverage)
	bw.Int(res.K)
	bw.U64(res.DetailedInsts)
	bw.Int(len(res.Slots))
	for _, s := range res.Slots {
		bw.F64(s)
	}
	bw.Int(len(res.Points))
	for _, p := range res.Points {
		bw.I64(p.Interval)
		bw.F64(p.Weight)
		bw.F64(p.IPC)
		bw.F64(p.PowerMW)
	}
	if err := bw.Err(); err != nil {
		return nil, err
	}
	if err := boom.EncodeStats(&buf, res.Stats); err != nil {
		return nil, err
	}
	if err := power.EncodeReport(&buf, res.Power); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeResultPayload decodes a measure or full payload taken on a config
// with intIssueSlots integer issue slots. The two slice lengths are checked
// against what is already known — the slot count, and the NumPoints decoded
// just before — ahead of allocating for them.
func decodeResultPayload(payload []byte, res *Result, intIssueSlots int) error {
	rd := bytes.NewReader(payload)
	br := binio.NewReader(rd)
	res.TotalInsts = br.U64()
	res.IntervalSize = br.I64()
	res.NumPoints = br.Int()
	res.Coverage = br.F64()
	res.K = br.Int()
	res.DetailedInsts = br.U64()
	if n := br.Len(maxCachedLen); n != intIssueSlots {
		br.Fail("result payload has %d issue slots for a %d-slot config", n, intIssueSlots)
	}
	res.Slots = make([]float64, intIssueSlots)
	for i := range res.Slots {
		res.Slots[i] = br.F64()
	}
	if n := br.Len(maxCachedLen); n != res.NumPoints || n > rd.Len()/pointRowLen {
		br.Fail("result payload has %d point rows for %d points in %d bytes", n, res.NumPoints, rd.Len())
	}
	if err := br.Err(); err != nil {
		return err
	}
	res.Points = make([]PointResult, res.NumPoints)
	for i := range res.Points {
		res.Points[i].Interval = br.I64()
		res.Points[i].Weight = br.F64()
		res.Points[i].IPC = br.F64()
		res.Points[i].PowerMW = br.F64()
	}
	if err := br.Err(); err != nil {
		return err
	}
	var err error
	if res.Stats, err = boom.DecodeStats(rd); err != nil {
		return err
	}
	if res.Power, err = power.DecodeReport(rd); err != nil {
		return err
	}
	if rd.Len() != 0 {
		return fmt.Errorf("result payload has %d trailing bytes", rd.Len())
	}
	return nil
}
