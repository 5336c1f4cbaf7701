// Command boomctl is the boomd client the tests and Makefile drive:
//
//	boomctl [-addr HOST:PORT] submit [-workloads sha,qsort] [-configs medium] [-scale tiny] [-wait]
//	boomctl [-addr HOST:PORT] submit -base MediumBOOM -axes 'rob=64,96;predictor=tage,gshare' [-override 'l2-kib=1024']
//	boomctl [-addr HOST:PORT] submit -workloads dijkstra -features bbv+mav -warmup 5x [-interval N] [-sp-dims N] [-sp-maxk N]
//	boomctl [-addr HOST:PORT] status [ID]
//	boomctl [-addr HOST:PORT] result ID [-wait]
//	boomctl [-addr HOST:PORT] metrics
//	boomctl [-addr HOST:PORT] health
//
// submit prints the job ID (the campaign fingerprint) on stdout; with
// -wait it blocks until the sweep is terminal and prints the result JSON
// instead. status with an ID reports that job; with no ID it reports the
// fabric (registered workers — including any quarantined by result
// auditing — and in-flight campaigns' cell accounting). A draining
// coordinator answers reads with 503 + Retry-After; boomctl takes that as
// the wait instruction it is (DESIGN §6 "Wire") and asks again, surfacing
// the typed "retry after Ns" error only if the node is still draining five
// retries later. -wait waits as long as the sweep runs; every single request
// is bounded by the client. Exit status is non-zero on any HTTP error,
// including a failed sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "boomctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// Global flags come before the subcommand; sub-flags after it.
	fs := newFlagSet("boomctl")
	addr := fs.String("addr", "127.0.0.1:8080", "")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usage()
	}
	c := &client{Client: serve.NewClient(*addr), out: out}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "status":
		switch len(rest) {
		case 0:
			return c.get("/v1/fabric/status")
		case 1:
			return c.get("/v1/sweeps/" + rest[0])
		default:
			return usage()
		}
	case "result":
		wait := len(rest) == 2 && rest[1] == "-wait"
		if len(rest) != 1 && !wait {
			return usage()
		}
		return c.result(rest[0], wait)
	case "metrics":
		return c.get("/metrics")
	case "health":
		if err := c.get("/healthz"); err != nil {
			return err
		}
		return c.get("/readyz")
	}
	return usage()
}

// newFlagSet returns a FlagSet that prints nothing itself; parse reports
// what it objects to together with the one usage line.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%v\n%v", err, usage())
	}
	return nil
}

func usage() error {
	return fmt.Errorf("usage: boomctl [-addr HOST:PORT] " +
		"submit [-workloads a,b] [-configs x,y | -base CFG -axes 'p=v1,v2;…' -override 'p=v;…'] [-scale S] " +
		"[-interval N] [-features bbv|bbv+mav] [-sp-dims N] [-sp-maxk N] [-warmup none|N|Nx] [-wait] | " +
		"status [ID] | result ID [-wait] | metrics | health")
}

type client struct {
	*serve.Client
	out io.Writer
}

func (c *client) submit(args []string) error {
	fs := newFlagSet("submit")
	wl := fs.String("workloads", "", "")
	configs := fs.String("configs", "", "")
	scale := fs.String("scale", "", "")
	spec := dse.Spec{}
	fs.StringVar(&spec.Base, "base", "", "")
	axes := fs.String("axes", "", "")
	overrides := fs.String("override", "", "")
	interval := fs.Int64("interval", 0, "")
	features := fs.String("features", "", "")
	dims := fs.Int("sp-dims", 0, "")
	maxK := fs.Int("sp-maxk", 0, "")
	warmup := fs.String("warmup", "", "")
	wait := fs.Bool("wait", false, "")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usage()
	}
	var err error
	if spec.Axes, err = dse.ParseAxes(*axes); err != nil {
		return fmt.Errorf("-axes: %w", err)
	}
	if spec.Overrides, err = dse.ParseOverrides(*overrides); err != nil {
		return fmt.Errorf("-override: %w", err)
	}
	req := serve.RequestFromSpec(spec)
	req.Workloads, req.Configs, req.Scale = serve.SplitList(*wl), serve.SplitList(*configs), *scale
	req.Sampling = serve.SamplingBlock(*interval, *features, *dims, *maxK, *warmup)
	st, err := c.Submit(req)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Fprintln(c.out, st.ID)
		return nil
	}
	return c.result(st.ID, true)
}

// result prints a job's canonical result JSON (see serve.Client.Result).
func (c *client) result(id string, wait bool) error {
	b, err := c.Result(id, wait)
	if err != nil {
		return err
	}
	_, err = c.out.Write(b)
	return err
}

// readPolicy is how a read rides out a drain: up to five more asks, each
// after the server's Retry-After — capped at Max, so a confused server
// advertising "Retry-After: 86400" cannot park the client for a day.
var readPolicy = backoff.Policy{Attempts: 6, Base: 500 * time.Millisecond, Max: 15 * time.Second, Jitter: -1}

// get prints one endpoint's body. Only an answer that says when to come
// back is retried: any other failure, a dead endpoint included, is the
// answer an operator at a terminal wants now.
func (c *client) get(path string) error {
	var b []byte
	err := wire.Retry(context.Background(), readPolicy, func(ctx context.Context) error {
		_, err := c.Do(ctx, http.MethodGet, path, nil, &b)
		var e *wire.Error
		if errors.As(err, &e) && e.RetryAfter != "" {
			return err
		}
		return backoff.Permanent(err)
	})
	if err != nil {
		return err
	}
	_, err = c.out.Write(b)
	return err
}
