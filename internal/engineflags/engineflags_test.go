package engineflags

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parse registers the shared flags (plus metrics) on a throwaway FlagSet
// and parses args, failing the test on a parse error.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	f.RegisterMetrics(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// TestValidateRejections: every invalid combination must fail with an
// error that names the offending flag — not be clamped or ignored.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-j", "0"}, "-j 0"},
		{[]string{"-j", "-4"}, "-j -4"},
		{[]string{"-retries", "-1"}, "-retries"},
		{[]string{"-stage-timeout", "-1s"}, "-stage-timeout"},
		{[]string{"-cache-verify"}, "-cache-verify requires -cache"},
		{[]string{"-chaos", "not-a-plan"}, "-chaos"},
		{[]string{"-metrics", "xml"}, "-metrics"},
		{[]string{"-remote-store", "http://store:9000"}, "-remote-store requires -cache"},
		{[]string{"-remote-connect-timeout", "-1s"}, "-remote-connect-timeout"},
		{[]string{"-remote-timeout", "0s"}, "-remote-timeout"},
		// A destination that cannot be created fails here, before any work.
		{[]string{"-metrics", "json", "-metrics-out", filepath.Join(t.TempDir(), "no-such-dir", "m.json")}, "-metrics-out"},
	}
	for _, tc := range cases {
		f := parse(t, tc.args...)
		err := f.Validate()
		if err == nil {
			t.Errorf("%q: Validate accepted invalid flags", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.args, err, tc.want)
		}
		if _, err := f.Options(); err == nil {
			t.Errorf("%q: Options must propagate the validation error", tc.args)
		}
	}
}

// TestDefaultJobsValid: -j defaults to 0 meaning "all cores"; only an
// explicitly passed non-positive value is an error.
func TestDefaultJobsValid(t *testing.T) {
	f := parse(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Errorf("defaults built %d options, want none", len(opts))
	}
}

// TestOptionsBuilt: every set flag must contribute its engine option.
func TestOptionsBuilt(t *testing.T) {
	f := parse(t,
		"-j", "2", "-cache", t.TempDir(), "-cache-verify",
		"-retries", "3", "-keep-going", "-stage-timeout", "5s",
		"-chaos", "7:core.measure/sha/*=error",
		"-remote-store", "http://store:9000")
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	// parallelism, cache, cache-verify, keep-going, retry, stage-timeout,
	// fault injector, remote store
	if len(opts) != 8 {
		t.Errorf("built %d options, want 8", len(opts))
	}
}

// TestRetiredFlagsUndefined: -resume and -point-j are gone, not ignored —
// a script that still passes one fails at parse time instead of running
// under a knob that no longer means anything.
func TestRetiredFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{{"-resume"}, {"-point-j", "2"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%q: parse error %v, want \"flag provided but not defined\"", args, err)
		}
	}
}

// TestEveryEngineFieldHasOneFlag: the flags bind straight into the
// embedded core.Engine, one flag per field. A knob added to the struct but
// not to Register (or bound twice) fails here, before it can be settable
// from one entry point and not from another.
func TestEveryEngineFieldHasOneFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	bound := map[uintptr][]string{}
	fs.VisitAll(func(fl *flag.Flag) {
		// The flag package's *Var values are the bound variable's own
		// address under a named pointer type.
		p := reflect.ValueOf(fl.Value).Pointer()
		bound[p] = append(bound[p], "-"+fl.Name)
	})
	ev := reflect.ValueOf(&f.Engine).Elem()
	for i := 0; i < ev.NumField(); i++ {
		name := ev.Type().Field(i).Name
		if flags := bound[ev.Field(i).Addr().Pointer()]; len(flags) != 1 {
			t.Errorf("core.Engine.%s is bound to %d flags %v, want exactly one", name, len(flags), flags)
		}
	}
}

// TestMetricsRegistry: a registry exists exactly when -metrics is set, and
// EmitMetrics honors the mode and the stdout destination.
func TestMetricsRegistry(t *testing.T) {
	if f := parse(t); f.MetricsRegistry() != nil {
		t.Error("registry without -metrics")
	}

	f := parse(t, "-metrics", "json")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := f.MetricsRegistry()
	if reg == nil {
		t.Fatal("no registry with -metrics json")
	}
	var buf bytes.Buffer
	if err := f.EmitMetrics(reg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(buf.String()), "{") {
		t.Errorf("json mode emitted %q", buf.String())
	}

	if err := f.EmitMetrics(nil, &buf); err != nil {
		t.Errorf("nil registry must be a no-op, got %v", err)
	}

	// A file destination is created by Validate and filled by EmitMetrics;
	// without -metrics the path is never touched.
	out := filepath.Join(t.TempDir(), "m.json")
	if err := parse(t, "-metrics-out", out).Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("-metrics-out created without -metrics")
	}
	f = parse(t, "-metrics", "json", "-metrics-out", out)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("Validate did not create the destination: %v", err)
	}
	if err := f.EmitMetrics(f.MetricsRegistry(), io.Discard); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || !strings.HasPrefix(string(data), "{") {
		t.Errorf("metrics file holds %q, %v", data, err)
	}
}
