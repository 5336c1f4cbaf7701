// Command benchmark is the repo's one end-to-end + per-layer benchmark for
// the SimPoint→power flow (see README.md in this directory):
//
//	go run ./benchmark [-workload W] [-seed N] [-size full|driver] [-seconds S] [-trace] [-aa]
//
// With tracing off it runs the selected campaign workloads closed-loop, one
// campaign at a time, and prints every end-to-end metric; with -trace it
// makes a separate pass that wraps spans around each layer's public calls
// and prints the per-layer metrics. Every repetition's simulated results
// are checked against committed digests; any mismatch or failed cell makes
// the exit code non-zero. The last line of standard output is one JSON
// object for the benchmark driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	size     string
	trace    bool
	aa       bool
	update   bool
}

// normalizeTrace lets -trace be written bare (by hand) or with a 0|1 value
// (the driver's "--trace 0"); the flag package would read a bool flag's
// detached value as the first positional argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		if args[i] != "-trace" && args[i] != "--trace" {
			continue
		}
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out[len(out)-1] += "=" + args[i+1]
			i++
		}
	}
	return out
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six, interleaved)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds campaign order and the DSE point sample")
	fs.IntVar(&o.seconds, "seconds", 0, "keep repeating each workload until it has used this many seconds (0: exactly 3 repetitions)")
	fs.StringVar(&o.size, "size", "full", "campaign size: full (ISSUE 11's) | driver (BENCHMARK.json's: the same intervals, fewer workloads and design points)")
	fs.BoolVar(&o.trace, "trace", false, "make the traced per-layer pass instead of the end-to-end one")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end pass twice and compare the two sets against the declared bounds")
	fs.BoolVar(&o.update, "update-golden", false, "recompute benchmark/golden/seed1.txt for every size and exit")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds must not be negative")
	}
	if o.trace && o.aa {
		return o, fmt.Errorf("-aa compares end-to-end sets; it does not combine with -trace")
	}
	return o, nil
}

// scratchRoot is where a run keeps its caches and stores: under the
// checkout (the benchmark writes nowhere else), in the directory the driver
// already reserves for build output.
const scratchRoot = ".bench_build"

func newEnv(o options, scratch string) (*env, error) {
	sizes := map[string]func() size{"full": fullSize, "driver": driverSize}
	if sizes[o.size] == nil {
		return nil, fmt.Errorf("unknown -size %q (full or driver)", o.size)
	}
	nproc := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < nproc {
		nproc = n
	}
	e := &env{size: sizes[o.size](), seed: o.seed, nproc: nproc, j: nproc, golden: parseGolden(goldenFile)}
	if e.j > 4 {
		e.j = 4
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.workDir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return nil, err
	}
	if e.workDir, err = filepath.Abs(e.workDir); err != nil {
		return nil, err
	}
	return e, nil
}

func selectWorkloads(e *env, name string) ([]workload, error) {
	all := allWorkloads(e)
	if name == "" {
		return all, nil
	}
	var names []string
	for _, w := range all {
		if w.name() == name {
			return []workload{w}, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	e, err := newEnv(o, scratchRoot)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(e.workDir)
	code, err := execute(o, e, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func execute(o options, e *env, stdout io.Writer) (int, error) {
	if o.update {
		return 0, updateGolden(e, stdout)
	}
	ws, err := selectWorkloads(e, o.workload)
	if err != nil {
		return 0, err
	}
	printHost(stdout, e, o)
	e.started, e.steal0 = time.Now(), stolenCPU()
	if err := warmUp(); err != nil {
		return 0, err
	}
	budget := time.Duration(o.seconds) * time.Second
	switch {
	case o.trace:
		return executeTrace(e, ws, stdout)
	case o.aa:
		return executeAA(e, ws, budget, stdout)
	}
	res, err := measure(e, ws, minReps, budget)
	if err != nil {
		return 0, err
	}
	return printResults(stdout, e, res, o.workload != ""), nil
}

// hostShape is recorded with every run: a parallel number means nothing
// without the CPU count it was taken on.
func printHost(w io.Writer, e *env, o options) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintf(w, "run:  size=%s scale=%s seed=%d seconds=%d reps>=%d j(sweep-par)=%d closed loop, one campaign at a time\n",
		o.size, e.size.scale, e.seed, o.seconds, minReps, e.j)
}

// stolenCPU is the CPU time the hypervisor has kept from this machine's
// virtual CPUs since boot (0 where the kernel does not say).
func stolenCPU() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	// "cpu user nice system idle iowait irq softirq steal ...", in 10 ms ticks.
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64) // 0 on a malformed field
	return time.Duration(ticks) * 10 * time.Millisecond
}

// printSteal reports how much of the run's CPU time the hypervisor took.
// Stolen time lengthens wall_s but not cpu_s.
func printSteal(w io.Writer, e *env) {
	if e.started.IsZero() {
		return
	}
	stolen, avail := stolenCPU()-e.steal0, time.Since(e.started)*time.Duration(runtime.NumCPU())
	note := ""
	if stolen > avail/20 {
		note = "  NOISY HOST: wall-clock figures are inflated; read cpu_s, or run again"
	}
	fmt.Fprintf(w, "\nhost: hypervisor stole %.2f s of CPU during this run, %.1f%% of nproc x elapsed%s\n",
		stolen.Seconds(), 100*stolen.Seconds()/avail.Seconds(), note)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricJSON is one metric in the driver's result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printTable prints one block of metrics with their spread beside them.
func printTable(w io.Writer, defs []metricDef, series func(name string) []float64) {
	for _, d := range defs {
		vals := series(d.name)
		if len(vals) == 0 {
			continue
		}
		s := summarize(d, vals)
		flag := ""
		switch {
		case d.exact && s.min != s.max:
			flag = "  NOT EXACT"
		case s.unresolved:
			flag = "  unresolved (spread > bound)"
		}
		bound := "exact"
		if !d.exact {
			bound = fmt.Sprintf("%.0f%%", 100*d.bound)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-8s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n=%d  %s-better bound %s%s\n",
			d.name, s.value, d.unit, s.q1, s.q3, s.min, s.max, s.n, d.better, bound, flag)
	}
}

// printResults prints every workload's end-to-end metrics and the driver line,
// and returns the exit code. With one workload selected the driver line
// holds exactly the end_to_end metrics; with all six it nests them by
// workload.
func printResults(w io.Writer, e *env, res []*result, single bool) int {
	line := driverLine{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range res {
		ops, failed, notes := r.totals()
		line.Attempted += ops
		line.Failed += failed
		fmt.Fprintf(w, "\n%s — %s\n", r.w.name(), r.w.why())
		if d := r.w.degenerate(); d != "" {
			fmt.Fprintf(w, "  DEGENERATE: %s\n", d)
		}
		printTable(w, endToEnd, r.series)
		printTable(w, ungated, r.series)
		fmt.Fprintf(w, "  %-26s %14d\n  %-26s %14d\n", "ops_total", ops, "ops_failed", failed)
		for _, n := range notes {
			fmt.Fprintf(w, "  FAILED: %s\n", n)
		}
		for _, d := range endToEnd {
			key := d.name
			if !single {
				key = r.w.name() + "/" + d.name
			}
			line.Metrics[key] = metricJSON{finiteOrZero(summarize(d, r.series(d.name)).value), d.unit}
		}
	}
	return finish(w, e, line)
}

// finish writes the host's noise note and the driver line, and maps
// failures to the exit code.
func finish(w io.Writer, e *env, line driverLine) int {
	printSteal(w, e)
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, "benchmark: encoding result line:", err)
		return 1
	}
	fmt.Fprintf(w, "\n%s\n", b)
	if line.Failed > 0 {
		return 1
	}
	return 0
}
