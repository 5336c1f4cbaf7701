package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Snapshot is a consistent point-in-time view of a whole registry, in the
// shape WriteJSON emits.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot          `json:"spans,omitempty"`
}

// Snapshot captures every instrument. A nil registry yields a zero
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	spanList := append([]*Span(nil), r.spanList...)
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = map[string]int64{}
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = map[string]float64{}
		for k, v := range gauges {
			s.Gauges[k] = finiteOr0(v.Value())
		}
	}
	if len(hists) > 0 {
		s.Histograms = map[string]HistSnapshot{}
		for k, v := range hists {
			s.Histograms[k] = v.Snapshot()
		}
	}
	for _, sp := range spanList {
		s.Spans = append(s.Spans, sp.Snapshot())
	}
	return s
}

// finiteOr0 clamps non-finite values to 0 at the rendering boundary.
// encoding/json rejects NaN/±Inf outright, so a single poisoned gauge
// (e.g. a ratio whose denominator collapsed to zero) would otherwise kill
// an entire metrics emission — a silent instrumentation bug escalating
// into a hard serving failure.
func finiteOr0(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// WriteJSON renders the registry as one indented JSON object. Map keys
// are emitted in sorted order (encoding/json), span order is creation
// order, so the output is deterministic for a fixed clock. Non-finite
// gauge values are rendered as 0 (see finiteOr0) so the emission cannot
// fail on a poisoned instrument.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText renders the registry as a human-readable report.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# metrics\n")
	if len(s.Counters) > 0 {
		p("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			p("  %-44s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		p("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			p("  %-44s %s\n", k, strconv.FormatFloat(s.Gauges[k], 'g', 6, 64))
		}
	}
	if len(s.Histograms) > 0 {
		p("histograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			p("  %-44s count=%d sum=%d min=%d max=%d mean=%.1f\n",
				k, h.Count, h.Sum, h.Min, h.Max, h.Mean)
		}
	}
	if len(s.Spans) > 0 {
		p("spans:\n")
		for _, sp := range s.Spans {
			writeSpanText(p, sp, 1)
		}
	}
	return err
}

func writeSpanText(p func(string, ...interface{}), s SpanSnapshot, depth int) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	name := indent + s.Name
	if s.Peak > 1 {
		// Concurrent laps: the extent alone understates the work done.
		p("%-46s %-14s (%d laps, busy %s, peak %d)\n", name, time.Duration(s.NS), s.Laps, time.Duration(s.BusyNS), s.Peak)
	} else {
		p("%-46s %-14s (%d laps)\n", name, time.Duration(s.NS), s.Laps)
	}
	for _, c := range s.Children {
		writeSpanText(p, c, depth+1)
	}
}
