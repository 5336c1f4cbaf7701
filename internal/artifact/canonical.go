package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"sort"
)

// This file implements the canonical encoding behind artifact keys. Two
// values of the same Go type produce the same byte stream iff they are
// deeply equal, so a SHA-256 over the stream is an injective (modulo hash
// collisions) fingerprint of a stage's inputs. The encoding is
// self-delimiting and type-tagged: every value is prefixed with its
// reflect.Kind, aggregates carry a length, struct fields carry their names,
// and map entries are emitted in sorted-key order so iteration order never
// leaks into the key.

// kind tags. Distinct from reflect.Kind values on purpose: the encoding is
// part of the cache schema and must not shift if reflect ever renumbers.
const (
	tagBool   = 1
	tagInt    = 2
	tagUint   = 3
	tagFloat  = 4
	tagString = 5
	tagSlice  = 6
	tagMap    = 7
	tagStruct = 8
	tagNil    = 9
)

// hashWriter accumulates the canonical stream into a hash.
type hashWriter struct {
	h hash.Hash
	b [8]byte
}

// byte goes through the scratch buffer: a fresh one-byte slice per tag
// would escape into the hash.Hash interface and allocate.
func (w *hashWriter) byte(b byte) {
	w.b[0] = b
	w.h.Write(w.b[:1])
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b[:], v)
	w.h.Write(w.b[:])
}

func (w *hashWriter) str(s string) {
	w.u64(uint64(len(s)))
	io.WriteString(w.h, s)
}

// writeCanon encodes v canonically into w. Unsupported kinds (funcs,
// channels, unsafe pointers) panic: keys are built from plain config
// structs, so hitting one is a programming error, not an input error.
func (w *hashWriter) writeCanon(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		w.byte(tagBool)
		if v.Bool() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.byte(tagInt)
		w.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.byte(tagUint)
		w.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		w.byte(tagFloat)
		w.u64(math.Float64bits(v.Float()))
	case reflect.String:
		w.byte(tagString)
		w.str(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			w.byte(tagNil)
			return
		}
		w.byte(tagSlice)
		n := v.Len()
		w.u64(uint64(n))
		// Byte slices are the common bulk case (workload segments); hash
		// them directly instead of element-by-element.
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			w.h.Write(v.Bytes())
			return
		}
		for i := 0; i < n; i++ {
			w.writeCanon(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			w.byte(tagNil)
			return
		}
		w.byte(tagMap)
		w.u64(uint64(v.Len()))
		// Sort entries by the canonical encoding of their keys.
		type entry struct {
			enc string
			key reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			sub := &hashWriter{h: sha256.New()}
			sub.writeCanon(it.Key())
			entries = append(entries, entry{string(sub.h.Sum(nil)), it.Key()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].enc < entries[j].enc })
		for _, e := range entries {
			w.writeCanon(e.key)
			w.writeCanon(v.MapIndex(e.key))
		}
	case reflect.Struct:
		w.byte(tagStruct)
		t := v.Type()
		w.str(t.Name())
		w.u64(uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			w.str(t.Field(i).Name)
			w.writeCanon(v.Field(i))
		}
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			w.byte(tagNil)
			return
		}
		w.writeCanon(v.Elem())
	default:
		panic(fmt.Sprintf("artifact: cannot canonically encode kind %s", v.Kind()))
	}
}

// Key identifies one cached artifact: the stage that produced it, the
// stage's payload schema version, and a SHA-256 over the canonical encoding
// of every input that determines the artifact's content.
type Key struct {
	Stage   string
	Version int
	Sum     [sha256.Size]byte
}

// NewKey fingerprints inputs for one stage. inputs is typically a flat
// struct naming every parameter the stage's output depends on (workload
// identity, config, library, upstream artifact keys). The stage name and
// schema version are mixed into the hash, so bumping a stage's version
// invalidates every prior entry of that stage.
func NewKey(stage string, version int, inputs interface{}) Key {
	w := &hashWriter{h: sha256.New()}
	w.str(stage)
	w.u64(uint64(version))
	w.writeCanon(reflect.ValueOf(inputs))
	k := Key{Stage: stage, Version: version}
	copy(k.Sum[:], w.h.Sum(nil))
	return k
}

// Hex returns the full lowercase hex fingerprint.
func (k Key) Hex() string { return fmt.Sprintf("%x", k.Sum) }

// String renders the key for logs: stage/version/short-hash.
func (k Key) String() string {
	return fmt.Sprintf("%s/v%d/%x", k.Stage, k.Version, k.Sum[:8])
}
