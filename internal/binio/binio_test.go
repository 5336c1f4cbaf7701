package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocatedBy is the heap fn allocated, in bytes.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBytesBarePrefix: eight bytes claiming a 128 MiB field allocate
// nothing near it, and the read fails as truncated.
func TestBytesBarePrefix(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint64(nil, 1<<27)
	var out []byte
	var err error
	got := allocatedBy(func() {
		br := NewReader(bytes.NewReader(prefix))
		out = br.Bytes(1 << 28)
		err = br.Err()
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) || out != nil {
		t.Errorf("Bytes = %d bytes, err %v; want nil, io.ErrUnexpectedEOF", len(out), err)
	}
	if got > 1<<20 {
		t.Errorf("a bare 128 MiB prefix allocated %d bytes", got)
	}
}

// TestBytesRoundTrip: a field reads back whole, in one allocation, and
// leaves the reader at what follows it.
func TestBytesRoundTrip(t *testing.T) {
	field := make([]byte, 300_000)
	for i := range field {
		field[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(field)
	w.U64(42)
	br := NewReader(bytes.NewReader(buf.Bytes()))
	got := br.Bytes(1 << 28)
	if tail := br.U64(); br.Err() != nil || !bytes.Equal(got, field) || tail != 42 {
		t.Errorf("read %d bytes (equal %v), tail %d, err %v", len(got), bytes.Equal(got, field), tail, br.Err())
	}
	if n := testing.AllocsPerRun(10, func() { NewReader(bytes.NewReader(buf.Bytes())).Bytes(1 << 28) }); n != 3 {
		t.Errorf("a field took %.0f allocations, want 3 (the bytes.Reader, the Reader and the field)", n)
	}
}

// TestUvarintRoundTrip: every value reads back as written, in the bytes
// encoding/binary gives it, and leaves the reader at what follows.
func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1<<32 - 1, 1 << 56, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []byte
	for _, v := range vals {
		w.Uvarint(v)
		want = binary.AppendUvarint(want, v)
	}
	w.U64(42)
	if w.Err() != nil || !bytes.Equal(buf.Bytes()[:len(want)], want) {
		t.Fatalf("encoded % x, want % x (err %v)", buf.Bytes()[:len(want)], want, w.Err())
	}
	br := NewReader(bytes.NewReader(buf.Bytes()))
	for _, v := range vals {
		if got := br.Uvarint(); got != v {
			t.Errorf("read %d, want %d", got, v)
		}
	}
	if tail := br.U64(); br.Err() != nil || tail != 42 {
		t.Errorf("tail %d, err %v", tail, br.Err())
	}
}

// TestUvarintRefusesWhatItDoesNotWrite: an over-long encoding of a value,
// a varint past 64 bits or ten bytes, and one the input ends inside are
// decode errors, so a decoder that accepts a varint re-encodes it
// byte-exact.
func TestUvarintRefusesWhatItDoesNotWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"zero padded to two bytes", []byte{0x80, 0x00}},
		{"one padded to three bytes", []byte{0x81, 0x80, 0x00}},
		{"ten bytes past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"truncated", []byte{0xff, 0xff}},
		{"empty", nil},
	} {
		br := NewReader(bytes.NewReader(tc.in))
		if v := br.Uvarint(); br.Err() == nil || v != 0 {
			t.Errorf("%s (% x): read %d, err %v; want 0 and an error", tc.name, tc.in, v, br.Err())
		}
	}
	br := NewReader(bytes.NewReader([]byte{0xff}))
	if br.Uvarint(); !errors.Is(br.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("a varint cut short: err %v, want io.ErrUnexpectedEOF", br.Err())
	}
}
