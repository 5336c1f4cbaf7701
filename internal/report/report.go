// Package report renders the paper's tables and figures from sweep results:
// aligned text tables for terminals and CSV for downstream plotting. Each
// Table*/Fig* function regenerates the corresponding artifact of the
// paper's evaluation section.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Table is one renderable table/figure data set.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	total := len(t.Headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	write(t.Headers)
	for _, row := range t.Rows {
		write(row)
	}
	return sb.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// failedCell marks a (workload, config) pair that a keep-going sweep could
// not measure: the row survives, the number does not.
const failedCell = "FAILED"

// resultOf returns the result for (config, workload), nil when that pair
// failed (or was never run) in a partial sweep.
func resultOf(sw *core.Sweep, cfg, name string) *core.Result {
	return sw.Results[cfg][name]
}

// presentCount returns how many of names have a result under cfg — the
// divisor for suite means, so complete sweeps keep their exact arithmetic
// and partial sweeps average over what was actually measured.
func presentCount(sw *core.Sweep, cfg string, names []string) int {
	n := 0
	for _, name := range names {
		if resultOf(sw, cfg, name) != nil {
			n++
		}
	}
	return n
}

// orderedWorkloads returns the sweep's requested workloads (Sweep.Names,
// so workloads that failed to profile still get their FAILED rows) in
// the registry's Table II order.
func orderedWorkloads(sw *core.Sweep) []string {
	rank := map[string]int{}
	for i, n := range workloads.Names() {
		rank[n] = i
	}
	names := append([]string(nil), sw.Names...)
	sort.SliceStable(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	return names
}

// TableI renders the three BOOM design points.
func TableI(configs []boom.Config) *Table {
	t := &Table{
		Title:   "Table I — BOOM configurations",
		Headers: []string{"Parameter"},
	}
	for _, c := range configs {
		t.Headers = append(t.Headers, c.Name)
	}
	row := func(name string, get func(boom.Config) string) {
		r := []string{name}
		for _, c := range configs {
			r = append(r, get(c))
		}
		t.Rows = append(t.Rows, r)
	}
	row("Fetch/decode width", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d", c.FetchWidth, c.DecodeWidth)
	})
	row("Fetch buffer entries", func(c boom.Config) string { return fmt.Sprint(c.FetchBufferEntries) })
	row("ROB entries", func(c boom.Config) string { return fmt.Sprint(c.RobEntries) })
	row("Int/FP physical registers", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d", c.IntPhysRegs, c.FpPhysRegs)
	})
	row("Int RF read/write ports", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d", c.IntRFReadPorts, c.IntRFWritePorts)
	})
	row("Issue slots (mem/int/FP)", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d/%d", c.MemIssueSlots, c.IntIssueSlots, c.FpIssueSlots)
	})
	row("Memory execution units", func(c boom.Config) string { return fmt.Sprint(c.MemIssueWidth) })
	row("L1D (KiB/ways/MSHRs)", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d/%d", c.DCacheKiB, c.DCacheWays, c.DCacheMSHRs)
	})
	row("L1I (KiB/ways)", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d", c.ICacheKiB, c.ICacheWays)
	})
	row("BTB entries", func(c boom.Config) string { return fmt.Sprint(c.BTBEntries) })
	row("TAGE tables × entries", func(c boom.Config) string {
		return fmt.Sprintf("%d×%d", c.TageTables, c.TageEntries)
	})
	row("LDQ/STQ entries", func(c boom.Config) string {
		return fmt.Sprintf("%d/%d", c.LdqEntries, c.StqEntries)
	})
	row("Clock (MHz)", func(c boom.Config) string { return fmt.Sprintf("%.0f", c.ClockMHz) })
	return t
}

// TableII renders per-benchmark instructions, interval size and simpoint
// counts.
func TableII(sw *core.Sweep) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table II — benchmark instructions, interval & #SimPoints (%s scale)", sw.Scale),
		Headers: []string{"Benchmark", "Suite", "Interval", "#SimPoints", "Coverage", "Instructions"},
	}
	for _, name := range orderedWorkloads(sw) {
		p := sw.Profiles[name]
		if p == nil {
			t.Rows = append(t.Rows, []string{
				name, failedCell, failedCell, failedCell, failedCell, failedCell,
			})
			continue
		}
		t.Rows = append(t.Rows, []string{
			name, p.Workload.Suite,
			fmt.Sprint(p.Workload.IntervalSize),
			fmt.Sprint(p.NumSimPoints()),
			fmt.Sprintf("%.0f%%", 100*p.Selection.Coverage),
			fmt.Sprint(p.TotalInsts),
		})
	}
	return t
}

// FigComponentPower renders Figs. 5/6/7: per-component power (mW) for every
// workload on one configuration.
func FigComponentPower(sw *core.Sweep, configName string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 5/6/7 — per-component power (mW), %s", configName),
		Headers: []string{"Component"},
	}
	names := orderedWorkloads(sw)
	t.Headers = append(t.Headers, names...)
	t.Headers = append(t.Headers, "Mean")
	present := presentCount(sw, configName, names)
	for _, comp := range boom.AnalyzedComponents() {
		row := []string{comp.String()}
		var mean float64
		for _, n := range names {
			r := resultOf(sw, configName, n)
			if r == nil {
				row = append(row, failedCell)
				continue
			}
			v := r.Power.Comp[comp].TotalMW()
			row = append(row, f2(v))
			mean += v / float64(present)
		}
		row = append(row, f2(mean))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FigSlotPower renders Fig. 8: per-integer-issue-slot power for chosen
// workloads on one configuration.
func FigSlotPower(sw *core.Sweep, configName string, names ...string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 8 — power per integer issue slot (mW), %s", configName),
		Headers: []string{"Slot"},
	}
	t.Headers = append(t.Headers, names...)
	slots := 0
	for _, n := range names {
		if r := resultOf(sw, configName, n); r != nil {
			slots = len(r.Slots)
			break
		}
	}
	for s := 0; s < slots; s++ {
		row := []string{fmt.Sprint(s)}
		for _, n := range names {
			r := resultOf(sw, configName, n)
			if r == nil {
				row = append(row, failedCell)
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", r.Slots[s]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FigContribution renders Fig. 9: the 13 analyzed components' share of
// tile power per configuration.
func FigContribution(sw *core.Sweep) *Table {
	t := &Table{
		Title:   "Fig. 9 — analyzed components' share of tile power",
		Headers: []string{"Config", "Analyzed mW", "Tile mW", "Share"},
	}
	for _, cfg := range sw.ConfigNames {
		var analyzed, total float64
		names := orderedWorkloads(sw)
		present := presentCount(sw, cfg, names)
		if present == 0 {
			t.Rows = append(t.Rows, []string{cfg, failedCell, failedCell, failedCell})
			continue
		}
		for _, n := range names {
			r := resultOf(sw, cfg, n)
			if r == nil {
				continue
			}
			analyzed += r.Power.AnalyzedMW() / float64(present)
			total += r.Power.TotalMW() / float64(present)
		}
		t.Rows = append(t.Rows, []string{
			cfg, f2(analyzed), f2(total), fmt.Sprintf("%.0f%%", 100*analyzed/total),
		})
	}
	return t
}

// FigIPC renders Fig. 10: IPC per benchmark per configuration.
func FigIPC(sw *core.Sweep) *Table {
	t := &Table{
		Title:   "Fig. 10 — IPC per benchmark",
		Headers: []string{"Benchmark"},
	}
	cfgs := sw.ConfigNames
	t.Headers = append(t.Headers, cfgs...)
	for _, n := range orderedWorkloads(sw) {
		row := []string{n}
		for _, cfg := range cfgs {
			if r := resultOf(sw, cfg, n); r != nil {
				row = append(row, f2(r.IPC()))
			} else {
				row = append(row, failedCell)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FigPerfPerWatt renders Fig. 11: IPC per watt per benchmark per config.
func FigPerfPerWatt(sw *core.Sweep) *Table {
	t := &Table{
		Title:   "Fig. 11 — performance per watt (IPC/W)",
		Headers: []string{"Benchmark"},
	}
	cfgs := sw.ConfigNames
	t.Headers = append(t.Headers, cfgs...)
	t.Headers = append(t.Headers, "Best")
	for _, n := range orderedWorkloads(sw) {
		row := []string{n}
		best, bestV := "", 0.0
		for _, cfg := range cfgs {
			r := resultOf(sw, cfg, n)
			if r == nil {
				row = append(row, failedCell)
				continue
			}
			v := r.PerfPerWatt()
			row = append(row, fmt.Sprintf("%.0f", v))
			if v > bestV {
				best, bestV = cfg, v
			}
		}
		row = append(row, best)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SpeedupTable summarizes the SimPoint simulation-cost saving.
func SpeedupTable(sw *core.Sweep) *Table {
	t := &Table{
		Title:   "SimPoint speedup — detailed-model instructions avoided",
		Headers: []string{"Benchmark", "Full insts", "Simulated insts", "Reduction"},
	}
	var full, det uint64
	for _, n := range orderedWorkloads(sw) {
		var wf, wd uint64
		for _, cfg := range sw.ConfigNames {
			r := resultOf(sw, cfg, n)
			if r == nil {
				continue
			}
			wf += r.TotalInsts
			wd += r.DetailedInsts
		}
		if wd == 0 {
			t.Rows = append(t.Rows, []string{n, failedCell, failedCell, failedCell})
			continue
		}
		full += wf
		det += wd
		t.Rows = append(t.Rows, []string{
			n, fmt.Sprint(wf), fmt.Sprint(wd), fmt.Sprintf("%.1f×", float64(wf)/float64(wd)),
		})
	}
	if det > 0 {
		t.Rows = append(t.Rows, []string{
			"TOTAL", fmt.Sprint(full), fmt.Sprint(det), fmt.Sprintf("%.1f×", float64(full)/float64(det)),
		})
	}
	// Measured wall-clock speedup (flow profiling + detailed measurement vs
	// an estimated full detailed simulation at the measured per-instruction
	// cost) — the time-based evidence behind the instruction-count ratio.
	if rep := sw.SpeedupOf(); rep.WallSpeedup() > 0 {
		t.Rows = append(t.Rows, []string{
			"TOTAL wall-clock",
			fmt.Sprintf("%.0f ms (est. full)", float64(rep.EstFullWallNS())/1e6),
			fmt.Sprintf("%.0f ms (measured)", float64(rep.FlowWallNS())/1e6),
			fmt.Sprintf("%.1f×", rep.WallSpeedup()),
		})
	}
	return t
}

// PhaseProfile renders the per-simulation-point view of one workload on one
// configuration: the phase-level IPC/power breakdown the SimPoint
// methodology provides for free.
func PhaseProfile(sw *core.Sweep, configName, workload string) *Table {
	r := resultOf(sw, configName, workload)
	if r == nil {
		return &Table{
			Title:   fmt.Sprintf("Phase profile — %s on %s", workload, configName),
			Headers: []string{"Point", "Interval", "Weight", "IPC", "Power mW"},
			Rows:    [][]string{{failedCell, failedCell, failedCell, failedCell, failedCell}},
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Phase profile — %s on %s (%d points, %.0f%% coverage)", workload, configName, r.NumPoints, 100*r.Coverage),
		Headers: []string{"Point", "Interval", "Weight", "IPC", "Power mW"},
	}
	for i, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1),
			fmt.Sprint(p.Interval),
			fmt.Sprintf("%.3f", p.Weight),
			f2(p.IPC),
			f2(p.PowerMW),
		})
	}
	return t
}

// PowerSources renders the §II-E decomposition: tile power per configuration
// split into leakage, internal and switching power (suite averages).
func PowerSources(sw *core.Sweep) *Table {
	t := &Table{
		Title:   "Power by dissipation source (§II-E), suite averages",
		Headers: []string{"Config", "Leakage mW", "Internal mW", "Switching mW", "Total mW"},
	}
	names := orderedWorkloads(sw)
	for _, cfg := range sw.ConfigNames {
		present := presentCount(sw, cfg, names)
		if present == 0 {
			t.Rows = append(t.Rows, []string{cfg, failedCell, failedCell, failedCell, failedCell})
			continue
		}
		var leak, internal, switching float64
		for _, n := range names {
			r := resultOf(sw, cfg, n)
			if r == nil {
				continue
			}
			for c := boom.Component(0); c < boom.NumComponents; c++ {
				b := r.Power.Comp[c]
				leak += b.LeakageMW / float64(present)
				internal += b.InternalMW / float64(present)
				switching += b.SwitchingMW / float64(present)
			}
		}
		t.Rows = append(t.Rows, []string{
			cfg, f2(leak), f2(internal), f2(switching), f2(leak + internal + switching),
		})
	}
	return t
}
