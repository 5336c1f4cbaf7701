package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), for scraping off a daemon's GET /metrics:
//
//	counters   →  one "counter" series per instrument
//	gauges     →  one "gauge" series per instrument
//	histograms →  <name>_count / _sum / _min / _max / _mean gauge-style
//	              scalar series from Summary() (the power-of-two buckets
//	              stay in the JSON/text renderers)
//	spans      →  <name>_ns / <name>_laps counter series, flattened with
//	              their full path as the metric name
//
// Metric names are mapped to the Prometheus charset: every character
// outside [a-zA-Z0-9_:] (the registry uses dots and slashes) becomes an
// underscore. Series are emitted in sorted order, so output for a fixed
// registry state is deterministic. Non-finite gauge values render as 0
// via the snapshot layer — an exposition that emits "NaN" poisons most
// scrape-side rate() math silently.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, k := range sortedKeys(s.Counters) {
		name := promName(k)
		p("# TYPE %s counter\n%s %d\n", name, name, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		p("# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[k]))
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		name := promName(k)
		p("# TYPE %s summary\n", name)
		p("%s_count %d\n", name, h.Count)
		p("%s_sum %d\n", name, h.Sum)
		p("%s_min %d\n", name, h.Min)
		p("%s_max %d\n", name, h.Max)
		p("%s_mean %s\n", name, promFloat(finiteOr0(h.Mean)))
	}
	for _, sp := range s.Spans {
		writeSpanProm(p, "", sp)
	}
	return err
}

func writeSpanProm(p func(string, ...interface{}), prefix string, s SpanSnapshot) {
	name := promName(prefix + "span_" + s.Name)
	if prefix != "" {
		name = promName(prefix + "_" + s.Name)
	}
	p("# TYPE %s_ns counter\n%s_ns %d\n", name, name, s.NS)
	p("# TYPE %s_busy_ns counter\n%s_busy_ns %d\n", name, name, s.BusyNS)
	p("# TYPE %s_peak gauge\n%s_peak %d\n", name, name, s.Peak)
	p("# TYPE %s_laps counter\n%s_laps %d\n", name, name, s.Laps)
	for _, c := range s.Children {
		writeSpanProm(p, name, c)
	}
}

// promFloat formats a float the way Prometheus client libraries do: the
// shortest representation that round-trips.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName maps a registry instrument name onto the Prometheus metric
// charset [a-zA-Z0-9_:].
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}
