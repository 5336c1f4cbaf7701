// Package binio provides sticky-error binary readers and writers for the
// deterministic little-endian codecs behind the artifact cache. Encoders
// must be canonical — the same value always produces the same bytes — so
// cached payloads can be byte-compared against fresh recomputations
// (-cache-verify) and content-addressed safely.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer writes little-endian primitives to an io.Writer. The first error
// sticks: subsequent writes are no-ops and Err returns it.
type Writer struct {
	w   io.Writer
	err error
	b   [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.b[:], v)
	_, w.err = w.w.Write(w.b[:8])
}

// Uvarint writes v as an unsigned LEB128 varint: 7 bits a byte, low bits
// first, one to ten bytes.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(w.b[:binary.PutUvarint(w.b[:], v)])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	w.U64(b)
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Reader reads little-endian primitives from an io.Reader. The first error
// sticks: subsequent reads return zero values and Err returns it.
type Reader struct {
	r   io.Reader
	err error
	b   [8]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail forces the reader into an error state (decode-side validation).
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if _, r.err = io.ReadFull(r.r, r.b[:]); r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.b[:])
}

// Uvarint reads a varint as Writer.Uvarint writes it, from an in-memory
// input (a bytes.Reader, as for Alloc). Only that one encoding of a value
// is accepted: encoding/binary refuses a varint past 64 bits or ten bytes
// and one the input ends inside, and a varint longer than its value needs
// is refused here.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	in, ok := r.r.(interface {
		io.ByteReader
		Len() int
	})
	if !ok {
		r.Fail("binio: varints are read from an in-memory input")
		return 0
	}
	left := in.Len()
	v, err := binary.ReadUvarint(in)
	if err != nil {
		r.err = err
		return 0
	}
	var enc [binary.MaxVarintLen64]byte
	if left-in.Len() > binary.PutUvarint(enc[:], v) {
		r.Fail("binio: varint is longer than its value needs")
		return 0
	}
	return v
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a one-byte bool; values other than 0/1 are decode errors.
func (r *Reader) Bool() bool {
	switch r.U64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("binio: invalid bool")
		return false
	}
}

// Len reads a length and validates 0 <= n <= max, failing the reader
// otherwise. Decoders use it so corrupt payloads error out instead of
// provoking giant allocations.
func (r *Reader) Len(max int) int {
	n := r.I64()
	if r.err == nil && (n < 0 || n > int64(max)) {
		r.Fail("binio: length %d out of range [0,%d]", n, max)
		return 0
	}
	return int(n)
}

// Alloc is n when the rest of the input holds n elements of at least
// elemBytes encoded bytes each; otherwise it fails the reader with
// io.ErrUnexpectedEOF and is 0. Decoders size a slice by it, so a length
// prefix alone never sizes an allocation. The rest of the input is what its
// Len method reports: decoders read in-memory inputs (a bytes.Reader), and
// an input without one is taken to hold nothing.
func (r *Reader) Alloc(n, elemBytes int) int {
	if r.err != nil || n <= 0 {
		return 0
	}
	left := 0
	if in, ok := r.r.(interface{ Len() int }); ok {
		left = in.Len()
	}
	if n > left/elemBytes {
		r.err = fmt.Errorf("binio: %d elements of %d bytes with %d bytes left: %w", n, elemBytes, left, io.ErrUnexpectedEOF)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice of at most max bytes.
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, r.Alloc(n, 1))
	if r.err != nil {
		return nil
	}
	if _, r.err = io.ReadFull(r.r, out); r.err != nil {
		return nil
	}
	return out
}
