package artifact_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/artifact"
	"repro/internal/asap7"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// refWriter is the canonical encoder as first written: unbuffered, every
// string through io.WriteString, map keys ordered by the string of a
// fresh sub-digest each. artifact.NewKey must produce its keys byte for
// byte, since every entry on disk is named by one.
type refWriter struct {
	h hash.Hash
	b [8]byte
}

func (w *refWriter) byte(b byte) {
	w.b[0] = b
	w.h.Write(w.b[:1])
}

func (w *refWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b[:], v)
	w.h.Write(w.b[:])
}

func (w *refWriter) str(s string) {
	w.u64(uint64(len(s)))
	io.WriteString(w.h, s)
}

func (w *refWriter) writeCanon(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		w.byte(1)
		if v.Bool() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.byte(2)
		w.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.byte(3)
		w.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		w.byte(4)
		w.u64(math.Float64bits(v.Float()))
	case reflect.String:
		w.byte(5)
		w.str(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			w.byte(9)
			return
		}
		w.byte(6)
		n := v.Len()
		w.u64(uint64(n))
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			w.h.Write(v.Bytes())
			return
		}
		for i := 0; i < n; i++ {
			w.writeCanon(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			w.byte(9)
			return
		}
		w.byte(7)
		w.u64(uint64(v.Len()))
		type entry struct {
			enc string
			key reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			sub := &refWriter{h: sha256.New()}
			sub.writeCanon(it.Key())
			entries = append(entries, entry{string(sub.h.Sum(nil)), it.Key()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].enc < entries[j].enc })
		for _, e := range entries {
			w.writeCanon(e.key)
			w.writeCanon(v.MapIndex(e.key))
		}
	case reflect.Struct:
		w.byte(8)
		t := v.Type()
		w.str(t.Name())
		w.u64(uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			w.str(t.Field(i).Name)
			w.writeCanon(v.Field(i))
		}
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			w.byte(9)
			return
		}
		w.writeCanon(v.Elem())
	default:
		panic(fmt.Sprintf("cannot canonically encode kind %s", v.Kind()))
	}
}

func refKey(stage string, version int, inputs any) artifact.Key {
	w := &refWriter{h: sha256.New()}
	w.str(stage)
	w.u64(uint64(version))
	w.writeCanon(reflect.ValueOf(inputs))
	k := artifact.Key{Stage: stage, Version: version}
	copy(k.Sum[:], w.h.Sum(nil))
	return k
}

// workloadIdent mirrors internal/core's workload identity, type name
// included: the name is part of the encoding.
type workloadIdent struct {
	Name         string
	Suite        string
	Scale        int
	IntervalSize int64
	Source       string
	Segments     []workloads.Segment
}

// TestNewKeyMatchesReference holds NewKey to the reference encoder over
// every shape a stage or campaign key hashes — the campaign, boom.Config,
// asap7.Library, the workload identity with its whole source and data
// segments, the measure-key triple — and over map-bearing values, whose
// entries take the sorted-digest path.
func TestNewKeyMatchesReference(t *testing.T) {
	var inputs []any
	for _, scale := range []workloads.Scale{workloads.ScaleTiny, workloads.ScaleDefault} {
		fc := core.FlowConfigFor(scale)
		for _, spec := range []sampling.Spec{{}, sampling.Recommended()} {
			c := core.NewCampaign(workloads.Names(), boom.Configs(), scale)
			inputs = append(inputs, struct {
				Names    []string
				Configs  []boom.Config
				Flow     core.FlowConfig
				Scale    int
				Sampling sampling.Spec
			}{c.Workloads, c.Configs, fc, int(c.Scale), spec})
		}
		for _, name := range workloads.Names() {
			w, err := workloads.Build(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, workloadIdent{w.Name, w.Suite, int(w.Scale), w.IntervalSize, w.Source, w.Segments})
		}
	}
	lib := asap7.Default()
	inputs = append(inputs, lib)
	for _, cfg := range boom.Configs() {
		inputs = append(inputs, cfg, struct {
			Profile string
			Config  boom.Config
			Lib     asap7.Library
		}{"65a59a7f4d3d077608e7a34646bf62a9c8be58616956d4a8b88bfdf3f4794df3", cfg, lib})
	}
	long := make([]byte, 1000)
	for i := range long {
		long[i] = byte(i)
	}
	inputs = append(inputs,
		struct {
			Configs map[string]boom.Config
			Blobs   map[int][]byte
			Nil     map[string]int
			Empty   map[string]int
			Ptr     *map[string]string
		}{
			Configs: map[string]boom.Config{"medium": boom.MediumBOOM(), "mega": boom.MegaBOOM(), string(long): {}},
			Blobs:   map[int][]byte{1: long, -7: nil, 300: {}},
			Empty:   map[string]int{},
			Ptr:     &map[string]string{"a": "b", "": string(long)},
		},
		map[string]int{"x": 1, "y": 2, "z": 3},
		string(long), "", long, []string{"", string(long[:255]), string(long[:256]), string(long[:257])},
	)
	for i, in := range inputs {
		for _, stage := range []string{"measure", "", string(long[:300])} {
			if got, want := artifact.NewKey(stage, 7, in), refKey(stage, 7, in); got != want {
				t.Fatalf("input %d (%T), stage %q: NewKey %s, reference %s", i, in, stage, got, want)
			}
		}
	}
}
