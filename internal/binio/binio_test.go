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
