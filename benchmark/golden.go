package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The simulated-identity gate. A change meant only to speed the simulator
// up must leave every simulated statistic identical, so each repetition
// hashes the canonical encoding of what it produced and compares it with
// the digests committed in golden/seed1.txt:
//
//	sweep/<scale>                  serve.EncodeSweep of the 11×3 campaign
//	sweep/<scale>/<wls>/<configs>  the same of a cut of it
//	dse-cell/<scale>/<config>/<wl> boom.EncodeStats of one DSE grid cell
//	dse-report/<scale>/<n>         dse.EncodeReport of the seed-1 campaign of n points
//	full/<scale>/<config>/<wl>     boom.EncodeStats of one full-detail run
//
// Campaign order is seed-dependent but results are not, so sweeps are
// hashed in canonical (Table II × Table I) order and every line but
// dse-report holds for every seed; dse-report is checked at -seed 1 only.

//go:embed golden/seed1.txt
var goldenFile string

type golden struct {
	want map[string]string
	// got collects every digest computed in this process, for -update-golden.
	got map[string]string
}

func parseGolden(text string) *golden {
	g := &golden{want: map[string]string{}, got: map[string]string{}}
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		if k, v, ok := strings.Cut(ln, " "); ok {
			g.want[k] = v
		}
	}
	return g
}

// check compares one digest with the pinned value, recording a failure in
// out on a mismatch or a key the file does not pin.
func (g *golden) check(out *outcome, key, digest string) {
	g.got[key] = digest
	switch want, ok := g.want[key]; {
	case !ok:
		out.fail("%s: no pinned digest (regenerate with -update-golden)", key)
	case want != digest:
		out.fail("%s: digest %s, pinned %s", key, digest, want)
	}
}

// render writes the collected digests in the committed file's format.
func (g *golden) render() string {
	keys := make([]string, 0, len(g.got))
	for k := range g.got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# Simulated-identity digests (SHA-256); see benchmark/golden.go.\n")
	sb.WriteString("# Regenerate with: go run ./benchmark -update-golden\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k, g.got[k])
	}
	return sb.String()
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func statsDigest(s *boom.Stats) (string, error) {
	var buf bytes.Buffer
	if err := boom.EncodeStats(&buf, s); err != nil {
		return "", err
	}
	return sha(buf.Bytes()), nil
}

// canonicalOrder returns names in the order ref lists them. Campaign axes
// are always drawn from ref (Table II, Table I), so nothing is dropped.
func canonicalOrder(names, ref []string) []string {
	in := map[string]bool{}
	for _, n := range names {
		in[n] = true
	}
	var out []string
	for _, n := range ref {
		if in[n] {
			out = append(out, n)
		}
	}
	return out
}

func configOrder() []string {
	var out []string
	for _, c := range boom.Configs() {
		out = append(out, c.Name)
	}
	return out
}

// sweepID is the id the equivalence suite encodes its sweep under, so the
// tiny-scale digest here is the sweepjson line of
// testdata/equivalence_golden.txt.
const sweepID = "equiv"

// sweepDigest hashes a sweep in canonical order under the fixed id.
func sweepDigest(sw *core.Sweep) (string, error) {
	c := *sw
	c.Names = canonicalOrder(sw.Names, workloads.Names())
	c.ConfigNames = canonicalOrder(sw.ConfigNames, configOrder())
	enc, err := serve.EncodeSweep(sweepID, sw.Scale, &c)
	if err != nil {
		return "", err
	}
	return sha(enc), nil
}

// wireSweepDigest is sweepDigest for a result that crossed HTTP: decode
// the served JSON, restore canonical order and id, re-encode. Go's float
// encoding round-trips exactly, so equal results give equal bytes.
func wireSweepDigest(body []byte) (string, error) {
	var res serve.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return "", fmt.Errorf("decoding sweep result: %w", err)
	}
	res.ID = sweepID
	res.Workloads = canonicalOrder(res.Workloads, workloads.Names())
	res.Configs = canonicalOrder(res.Configs, configOrder())
	wrank, crank := map[string]int{}, map[string]int{}
	for i, n := range res.Workloads {
		wrank[n] = i
	}
	for i, n := range res.Configs {
		crank[n] = i
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		if crank[a.Config] != crank[b.Config] {
			return crank[a.Config] < crank[b.Config]
		}
		return wrank[a.Workload] < wrank[b.Workload]
	})
	enc, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return sha(append(enc, '\n')), nil
}

// updateGolden recomputes every pinned digest — for each size its sweep, its
// wire sweep, its full-detail runs and its seed-1 DSE report, and per scale
// the whole 64-point DSE grid on both DSE workloads — and rewrites
// golden/seed1.txt. Run it only when a change is meant to move simulated
// results.
func updateGolden(e *env, w io.Writer) error {
	ctx := context.Background()
	g := e.golden
	e.seed = 1
	var discard outcome
	pin := func(key, digest string, err error) error {
		if err == nil {
			g.check(&discard, key, digest)
		}
		return err
	}
	pinSweep := func(r *core.Runner, camp core.Campaign) error {
		if _, done := g.got[sweepKey(camp)]; done {
			return nil
		}
		sw, err := r.Sweep(ctx, camp)
		if err != nil {
			return err
		}
		d, err := sweepDigest(sw)
		return pin(sweepKey(camp), d, err)
	}
	grid, err := dseGrid()
	if err != nil {
		return err
	}
	grids := map[workloads.Scale]*core.Sweep{}
	for _, sz := range []size{fullSize(), driverSize(), smokeSize()} {
		e.size = sz
		scale := sz.scale
		fmt.Fprintf(w, "scale %s: %d-workload sweep, %d DSE points, %d full-detail runs\n", scale, len(sz.names), sz.dsePoints, len(sz.full))
		r := newRunner(scale, e.nproc, "", nil)
		if err := pinSweep(r, sweepCampaign(e, 0, sz.names, scale)); err != nil {
			return err
		}
		if err := pinSweep(newRunner(workloads.ScaleTiny, e.nproc, "", nil), sweepCampaign(e, 0, sz.wire, workloads.ScaleTiny)); err != nil {
			return err
		}

		built, err := buildAll(sz.full, scale)
		if err != nil {
			return err
		}
		for _, n := range sz.full {
			res, err := r.RunFull(ctx, built[n], boom.MegaBOOM())
			if err != nil {
				return err
			}
			d, err := statsDigest(res.Stats)
			if err := pin(fmt.Sprintf("full/%s/%s/%s", scale, res.ConfigName, n), d, err); err != nil {
				return err
			}
		}

		gridSweep := grids[scale]
		if gridSweep == nil {
			if gridSweep, err = r.Sweep(ctx, core.NewCampaign(dseWorkloads, grid, scale)); err != nil {
				return err
			}
			grids[scale] = gridSweep
			for _, cfg := range gridSweep.ConfigNames {
				for _, wl := range gridSweep.Names {
					d, err := statsDigest(gridSweep.Results[cfg][wl].Stats)
					if err := pin(fmt.Sprintf("dse-cell/%s/%s/%s", scale, cfg, wl), d, err); err != nil {
						return err
					}
				}
			}
		}
		// The seed-1 DSE campaign's report, from the grid results.
		pts, err := (&dseWL{e: e}).sample()
		if err != nil {
			return err
		}
		sub := *gridSweep
		sub.ConfigNames = nil
		for _, p := range pts {
			sub.ConfigNames = append(sub.ConfigNames, p.Name)
		}
		enc, err := dseReport(&sub)
		if err := pin(dseReportKey(scale, len(pts)), sha(enc), err); err != nil {
			return err
		}
	}
	path := filepath.Join("benchmark", "golden", "seed1.txt")
	if err := os.WriteFile(path, []byte(g.render()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d digests)\n", path, len(g.got))
	return nil
}
