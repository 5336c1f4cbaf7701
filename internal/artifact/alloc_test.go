package artifact

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/asap7"
	"repro/internal/boom"
)

// TestPathIsJoin: the one-allocation path builder names the file
// filepath.Join names, for clean and unclean roots and for stages that are
// not one plain element.
func TestPathIsJoin(t *testing.T) {
	k := NewKey("measure", 2, "x")
	hex := k.Hex()
	for _, dir := range []string{"", ".", "/", "cache", "cache/", "./cache", "a//b/../c", "/tmp/x/", "..", "../..", "/..", "a/./b"} {
		for _, stage := range []string{"measure", "bbv", "", ".", "..", "a/b", "../x", "s.v1"} {
			for _, version := range []int{0, 2, -3, 1 << 40} {
				k.Stage, k.Version = stage, version
				want := filepath.Join(dir, stage, hex[:2], fmt.Sprintf("%s.v%d", hex[2:], version))
				if got := Open(dir).path(k); got != want {
					t.Errorf("dir %q stage %q version %d: path %q, want %q", dir, stage, version, got, want)
				}
			}
		}
	}
}

// Allocation ceilings, measured and allowed 3 % more as the benchmark's
// allocs_k bound is: a measure key is the writer and its digest plus the
// boxed inputs, and an entry path one string, however many fields and
// bytes they cover. A key that allocated per field or a path built through
// fmt again would fail here.
const (
	measureKeyAllocs = 3
	pathAllocs       = 1
)

func TestKeyAndPathAllocCeilings(t *testing.T) {
	cfg, lib := boom.MegaBOOM(), asap7.Default()
	profile := NewKey("checkpoint", 5, "profile").Hex()
	n := testing.AllocsPerRun(20, func() {
		NewKey("measure", 2, struct {
			Profile string
			Config  boom.Config
			Lib     asap7.Library
		}{profile, cfg, lib})
	})
	if ceiling := measureKeyAllocs * 1.03; n > ceiling {
		t.Errorf("a measure key allocates %.0f times, over its ceiling of %.2f (measured %d)", n, ceiling, measureKeyAllocs)
	}
	c, k := Open(t.TempDir()), NewKey("measure", 2, "x")
	n = testing.AllocsPerRun(20, func() { c.path(k) })
	if ceiling := pathAllocs * 1.03; n > ceiling {
		t.Errorf("an entry path allocates %.0f times, over its ceiling of %.2f (measured %d)", n, ceiling, pathAllocs)
	}
}
