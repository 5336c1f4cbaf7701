// Command kernelbench runs the hot-path kernel benchmarks (BOOM tick on a
// high- and a low-IPC trace, decode, stats accumulate, power accumulate, functional step/trace, BBV
// observe, memory access, one measure cell, one warm rerun) and emits a machine-readable BENCH_kernel.json
// with cycles/sec, ns/op, and allocs/op per BOOM configuration:
//
//	go run ./cmd/kernelbench                      # writes BENCH_kernel.json
//	go run ./cmd/kernelbench -benchtime 5s -out - # longer runs, to stdout
//	go run ./cmd/kernelbench -benchtime 1x        # smoke: one iteration each
//	go run ./cmd/kernelbench -bench '^BenchmarkKernel(Func|BBV|Mem)' \
//	    -benchtime 5000000x -count 3 -out - -floor BENCH_kernel.json
//	                                              # functional-core regression floor
//	go run ./cmd/kernelbench -bench '^BenchmarkKernel(Tick|WarmSweep)' -benchtime 8x \
//	    -out - -floor BENCH_kernel.json           # tick-kernel and warm-rerun allocation ceilings
//
// It drives the same `go test -bench BenchmarkKernel` harness a developer
// runs by hand — the benchmarks stay the single source of truth and this
// command only adds the reproducible JSON envelope (Go version, GOOS/
// GOARCH, CPU, benchtime) so numbers from different checkouts are
// comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// kernelPackages are the packages holding BenchmarkKernel* functions.
var kernelPackages = []string{
	"./internal/boom",
	"./internal/core",
	"./internal/power",
	"./internal/sim",
	"./internal/bbv",
	"./internal/mem",
}

// floorKernels are the functional-core kernels -floor holds to the
// committed ledger. Their op is one instruction (or one access pair), so a
// fixed -benchtime Nx measures them in milliseconds.
var floorKernels = []string{"func_step", "func_run_trace", "bbv_observe", "mem_read_write"}

// ceilingKernels are the kernels whose allocs/op -floor holds at or below
// the committed rows: a count, so it gates on every host. On the tick
// kernels it is what keeps a simulation point allocation-free (boom.New's
// tables, nothing per cycle or per µop); on warm_sweep, what keeps a rerun
// from reading the payloads it reports nothing from.
var ceilingKernels = []string{"tick", "tick_lo_ipc", "warm_sweep"}

// ceilingSlack is the fraction of its committed row a ceiling kernel may
// exceed it by. It rounds to nothing on the tick rows (57/op); on
// warm_sweep (~2400/op) it is the handful of allocations per op that refill
// the sync.Pools (fmt's, the artifact verifier's buffer) a GC cycle in the
// middle of an 8-iteration run empties. A payload parse is thousands.
const ceilingSlack = 0.01

// floorSlack is how much slower than its committed row a floor kernel may
// run before the floor fails.
const floorSlack = 1.5

// Result is one benchmark line of BENCH_kernel.json.
type Result struct {
	Name         string  `json:"name"`   // e.g. KernelTickMediumBOOM
	Kernel       string  `json:"kernel"` // tick, tick_lo_ipc, decode, stats_accumulate, power_accumulate, func_step, func_run_trace, bbv_observe, mem_read_write, measure_j1, measure_j4, warm_sweep
	Config       string  `json:"config,omitempty"`
	Package      string  `json:"package"`
	Iterations   int64   `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	NsPerInst    float64 `json:"ns_per_inst,omitempty"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// Report is the full BENCH_kernel.json document.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPU       string   `json:"cpu,omitempty"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kernelbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kernelbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchtime := fs.String("benchtime", "2s", "per-benchmark time or iteration count (go test -benchtime)")
	out := fs.String("out", "BENCH_kernel.json", "output path (- = stdout)")
	count := fs.Int("count", 1, "runs per benchmark (go test -count); the best ns/op run is kept")
	bench := fs.String("bench", "^BenchmarkKernel", "benchmarks to run (go test -bench)")
	floor := fs.String("floor", "", "committed ledger to hold the kernels that ran to: functional-core allocs/op equal and ns/op within 1.5x when taken on the same CPU model; tick and warm_sweep allocs/op no higher")
	if err := fs.Parse(args); err != nil {
		return err
	}

	goArgs := []string{
		"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchtime, "-count", strconv.Itoa(*count),
	}
	goArgs = append(goArgs, kernelPackages...)
	cmd := exec.Command("go", goArgs...)
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	// go test prints its benchmark lines before a test-failure exit, so
	// surface what ran even when the harness errors afterwards.
	fmt.Fprintf(stderr, "%s", raw)
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}

	rep := parseBenchOutput(string(raw))
	rep.GoVersion = runtime.Version()
	rep.GOOS = runtime.GOOS
	rep.GOARCH = runtime.GOARCH
	rep.Benchtime = *benchtime

	if *floor != "" {
		raw, err := os.ReadFile(*floor)
		if err != nil {
			return err
		}
		var committed Report
		if err := json.Unmarshal(raw, &committed); err != nil {
			return fmt.Errorf("%s: %w", *floor, err)
		}
		if err := checkFloor(rep, &committed, stderr); err != nil {
			return err
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d kernels)\n", *out, len(rep.Results))
	return nil
}

// checkFloor holds the kernels of got to their rows in the committed
// ledger. Every functional-core kernel must have run, allocate exactly what
// its row does, and take at most floorSlack times its ns/op; absolute times
// only compare like with like, so that half is skipped (and said so) when
// the ledger was taken on a different CPU model. Every ceiling kernel that
// ran may allocate no more than its row (plus ceilingSlack), per config.
// The two groups' ops differ a million-fold in cost, so one -bench
// selection runs one or the other: the functional-core half is waived only
// for a run that selected ceiling kernels and no functional-core one.
func checkFloor(got, committed *Report, stderr io.Writer) error {
	row := func(rep *Report, kernel, config string) *Result {
		for i := range rep.Results {
			if r := &rep.Results[i]; r.Kernel == kernel && r.Config == config {
				return r
			}
		}
		return nil
	}
	var ceilings []*Result
	for i := range got.Results {
		for _, k := range ceilingKernels {
			if got.Results[i].Kernel == k {
				ceilings = append(ceilings, &got.Results[i])
			}
		}
	}
	for _, g := range ceilings {
		c := row(committed, g.Kernel, g.Config)
		switch {
		case c == nil:
			return fmt.Errorf("floor: kernel %s %s has no committed row", g.Kernel, g.Config)
		case g.AllocsPerOp > c.AllocsPerOp+int64(ceilingSlack*float64(c.AllocsPerOp)):
			return fmt.Errorf("floor: %s allocates %d/op, committed %d/op", strings.TrimSpace(g.Kernel+" "+g.Config), g.AllocsPerOp, c.AllocsPerOp)
		}
	}
	ceilingOnly := len(ceilings) > 0
	for _, k := range floorKernels {
		ceilingOnly = ceilingOnly && row(got, k, "") == nil
	}
	if ceilingOnly {
		return nil
	}
	sameCPU := got.CPU == committed.CPU
	if !sameCPU {
		fmt.Fprintf(stderr, "floor: ledger taken on %q, this host is %q: comparing allocs/op only\n", committed.CPU, got.CPU)
	}
	for _, k := range floorKernels {
		g, c := row(got, k, ""), row(committed, k, "")
		switch {
		case g == nil:
			return fmt.Errorf("floor: kernel %s did not run", k)
		case c == nil:
			return fmt.Errorf("floor: kernel %s has no committed row", k)
		case g.AllocsPerOp != c.AllocsPerOp:
			return fmt.Errorf("floor: %s allocates %d/op, committed %d/op", k, g.AllocsPerOp, c.AllocsPerOp)
		case sameCPU && g.NsPerOp > floorSlack*c.NsPerOp:
			return fmt.Errorf("floor: %s runs at %.2f ns/op, more than %.1fx the committed %.2f", k, g.NsPerOp, floorSlack, c.NsPerOp)
		}
	}
	return nil
}

// parseBenchOutput converts `go test -bench -benchmem` text into a Report.
// With -count > 1 the fastest (lowest ns/op) run of each benchmark wins.
func parseBenchOutput(text string) *Report {
	rep := &Report{}
	best := map[string]int{} // name → index into rep.Results
	pkg := ""
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		r, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		r.Package = pkg
		if i, seen := best[r.Name]; seen {
			if r.NsPerOp < rep.Results[i].NsPerOp {
				rep.Results[i] = r
			}
			continue
		}
		best[r.Name] = len(rep.Results)
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkKernelTickMediumBOOM-8  66  17072339 ns/op  5366232 cycles/s  108.3 ns/inst  700816 B/op  1593 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs; unknown
// units are ignored so new ReportMetric additions don't break the parser.
func parseBenchLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 { // strip -GOMAXPROCS
		name = name[:i]
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	r.Kernel, r.Config = splitKernelName(name)
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "cycles/s":
			r.CyclesPerSec = v
		case "ns/inst":
			r.NsPerInst = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, true
}

// splitKernelName maps KernelTickMediumBOOM → (tick, MediumBOOM),
// KernelDecode → (decode, "").
func splitKernelName(name string) (kernel, config string) {
	name = strings.TrimPrefix(name, "Kernel")
	for _, cfg := range []string{"MediumBOOM", "LargeBOOM", "MegaBOOM"} {
		if strings.HasSuffix(name, cfg) {
			config = cfg
			name = strings.TrimSuffix(name, cfg)
			break
		}
	}
	// CamelCase → snake_case: TickMedium stripped above leaves e.g.
	// "StatsAccumulate" → stats_accumulate. A run of capitals is one word
	// ("BBVObserve" → bbv_observe), so a capital starts a word only after a
	// lower-case letter or digit, or before a lower-case letter.
	upper := func(i int) bool { return i < len(name) && name[i] >= 'A' && name[i] <= 'Z' }
	lower := func(i int) bool { return i < len(name) && name[i] >= 'a' && name[i] <= 'z' }
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if upper(i) {
			if i > 0 && (!upper(i-1) || lower(i+1)) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String(), config
}
