// Command simpoints runs the profiling half of the flow for one workload —
// BBV generation, clustering, simulation-point selection and checkpoint
// creation — and optionally writes the checkpoints to disk in the format of
// internal/ckpt:
//
//	go run ./cmd/simpoints -bench fft
//	go run ./cmd/simpoints -bench fft -out /tmp/fft-ckpts
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bbv"
	"repro/internal/core"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "sha", "workload name")
	scaleFlag := flag.String("scale", "default", "tiny|default|paper")
	out := flag.String("out", "", "directory to write serialized checkpoints")
	cacheDir := flag.String("cache", "", "artifact cache directory (empty = no caching)")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and fail on divergence")
	flag.Parse()

	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	w, err := workloads.Build(*bench, scale)
	if err != nil {
		fatal(err)
	}
	opts, err := core.Engine{CacheDir: *cacheDir, CacheVerify: *cacheVerify}.Options()
	if err != nil {
		fatal(err)
	}
	runner := core.New(core.FlowConfigFor(scale), append(opts, core.WithScale(scale))...)
	p, err := runner.Profile(context.Background(), w)
	if err != nil {
		fatal(err)
	}

	cs := p.Selection.Stats
	fmt.Printf("workload        %s (%s), %s scale\n", w.Name, w.Suite, scale)
	fmt.Printf("instructions    %d\n", p.TotalInsts)
	fmt.Printf("interval size   %d\n", w.IntervalSize)
	fmt.Printf("intervals       %d\n", len(p.Vectors))
	fmt.Printf("basic blocks    %d\n", p.NumBlocks)
	fmt.Printf("clusters (k)    %d\n", p.Selection.K)
	fmt.Printf("k-means         %d runs over k=1..%d, %d iterations, converged=%v\n",
		cs.Runs, cs.KTried, cs.Iterations, cs.Converged)
	fmt.Printf("simpoints       %d (%.0f%% coverage)\n\n",
		p.NumSimPoints(), 100*p.Selection.Coverage)

	fmt.Println("rank  interval  start-inst  weight   warm-up")
	for i, pt := range p.Selection.Selected {
		fmt.Printf("%4d  %8d  %10d  %6.3f  %8d\n",
			i+1, pt.Interval, int64(pt.Interval)*w.IntervalSize, pt.Weight, p.WarmupInsts[i])
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		// SimPoint 3.0-compatible artifacts (.bb / .simpoints / .weights).
		writeFile := func(name string, write func(f *os.File) error) {
			path := filepath.Join(*out, name)
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := write(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		writeFile(w.Name+".bb", func(f *os.File) error { return bbv.WriteBB(f, p.Vectors) })
		writeFile(w.Name+".simpoints", func(f *os.File) error { return simpoint.WriteSimPoints(f, p.Selection) })
		writeFile(w.Name+".weights", func(f *os.File) error { return simpoint.WriteWeights(f, p.Selection) })
		for i, k := range p.Checkpoints {
			path := filepath.Join(*out, fmt.Sprintf("%s-sp%02d.ckpt", w.Name, i+1))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := k.Serialize(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			info, _ := os.Stat(path)
			fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simpoints:", err)
	os.Exit(1)
}
