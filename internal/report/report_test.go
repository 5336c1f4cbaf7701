package report

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/workloads"
)

var (
	sweepOnce sync.Once
	sweepVal  *core.Sweep
	sweepErr  error
)

// testSweep runs one small shared sweep (3 workloads × 2 configs, tiny).
func testSweep(t *testing.T) *core.Sweep {
	t.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = core.New(core.DefaultFlowConfig()).
			Sweep(context.Background(), core.NewCampaign(
				[]string{"sha", "qsort", "dijkstra"},
				[]boom.Config{boom.MediumBOOM(), boom.MegaBOOM()},
				workloads.ScaleTiny))
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepVal
}

func TestRenderAlignment(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"xxxxxx", "1"}, {"y", "2"}},
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "a      ") {
		t.Errorf("header misaligned: %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{
		Headers: []string{"a", "b"},
		Rows:    [][]string{{`va"l`, "x,y"}},
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"va""l"`) || !strings.Contains(csv, `"x,y"`) {
		t.Errorf("bad CSV: %q", csv)
	}
}

func TestTableI(t *testing.T) {
	tb := TableI(boom.Configs())
	if len(tb.Headers) != 4 {
		t.Fatalf("headers: %v", tb.Headers)
	}
	out := tb.Render()
	for _, want := range []string{"MegaBOOM", "12/6", "24/40/32", "500"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableII(t *testing.T) {
	tb := TableII(testSweep(t))
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Table II order: qsort, dijkstra, sha.
	if tb.Rows[0][0] != "qsort" || tb.Rows[1][0] != "dijkstra" || tb.Rows[2][0] != "sha" {
		t.Errorf("wrong order: %v %v %v", tb.Rows[0][0], tb.Rows[1][0], tb.Rows[2][0])
	}
}

func TestFigTables(t *testing.T) {
	sw := testSweep(t)
	comp := FigComponentPower(sw, "MegaBOOM")
	if len(comp.Rows) != 13 {
		t.Errorf("Fig 5-7 must have 13 component rows, got %d", len(comp.Rows))
	}
	slots := FigSlotPower(sw, "MegaBOOM", "dijkstra", "sha")
	if len(slots.Rows) != boom.MegaBOOM().IntIssueSlots {
		t.Errorf("Fig 8 rows: %d", len(slots.Rows))
	}
	contrib := FigContribution(sw)
	if len(contrib.Rows) != 2 {
		t.Errorf("Fig 9 rows: %d", len(contrib.Rows))
	}
	ipc := FigIPC(sw)
	if len(ipc.Rows) != 3 || len(ipc.Headers) != 3 {
		t.Errorf("Fig 10 shape: %dx%d", len(ipc.Rows), len(ipc.Headers))
	}
	ppw := FigPerfPerWatt(sw)
	if ppw.Headers[len(ppw.Headers)-1] != "Best" {
		t.Errorf("Fig 11 must name the best config")
	}
	sp := SpeedupTable(sw)
	if !strings.HasPrefix(sp.Rows[len(sp.Rows)-1][0], "TOTAL") {
		t.Errorf("speedup table must end with a TOTAL row")
	}
	if sp.Rows[len(sp.Rows)-1][0] != "TOTAL wall-clock" {
		t.Errorf("speedup table must report measured wall-clock speedup")
	}
}

func TestTakeaways(t *testing.T) {
	out := Takeaways(testSweep(t))
	for _, want := range []string{"#1", "#2", "#3", "#4", "#5", "#6", "#7", "#8",
		"branch predictor", "allocation-list"} {
		if !strings.Contains(out, want) {
			t.Errorf("takeaways missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseProfile(t *testing.T) {
	sw := testSweep(t)
	tb := PhaseProfile(sw, "MegaBOOM", "sha")
	r := sw.Results["MegaBOOM"]["sha"]
	if len(tb.Rows) != r.NumPoints {
		t.Fatalf("rows %d, points %d", len(tb.Rows), r.NumPoints)
	}
	// Phase IPCs must bracket the weighted aggregate.
	var minIPC, maxIPC = 1e9, 0.0
	for _, p := range r.Points {
		if p.IPC < minIPC {
			minIPC = p.IPC
		}
		if p.IPC > maxIPC {
			maxIPC = p.IPC
		}
	}
	if agg := r.IPC(); agg < minIPC*0.95 || agg > maxIPC*1.05 {
		t.Errorf("aggregate IPC %.2f outside phase range [%.2f, %.2f]", agg, minIPC, maxIPC)
	}
}

func TestPowerSources(t *testing.T) {
	tb := PowerSources(testSweep(t))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Components must sum: leak+internal+switching == total per row.
	for _, row := range tb.Rows {
		var parts [4]float64
		for i := 0; i < 4; i++ {
			if _, err := fmt.Sscan(row[i+1], &parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if d := parts[0] + parts[1] + parts[2] - parts[3]; d > 0.02 || d < -0.02 {
			t.Errorf("row %v does not sum: delta %v", row, d)
		}
	}
}
