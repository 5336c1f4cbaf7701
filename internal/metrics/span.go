package metrics

import "sync"

// Span is one node of a hierarchical wall-clock tracer. A span
// accumulates time over any number of Start/End laps, so a pipeline stage
// that runs in disjoint stretches (e.g. per-checkpoint warm-up) still
// reports one total. Laps may overlap across goroutines, and a span
// reports three things about them:
//
//   - DurationNS, its wall-clock extent: time during which at least one
//     lap was active, overlapping laps counted once. For serial callers
//     this is exactly the elapsed time.
//   - BusyNS, the summed duration of every lap. Equal to the extent for
//     serial callers; up to Peak times larger under concurrency.
//   - Peak, the most laps ever active at once.
//
// Sibling spans whose laps run concurrently (per-point warmup, measure and
// estimate under a parallel Runner) overlap each other in time, so their
// extents do not sum to the parent's; each is bounded by it instead.
//
// All methods are nil-safe no-ops.
type Span struct {
	name string
	now  func() int64

	mu       sync.Mutex
	children map[string]*Span
	order    []*Span
	active   int   // laps started and not yet ended
	peak     int   // high-water mark of active
	last     int64 // clock at the latest Start/End
	extentNS int64 // accumulated while active > 0, up to last
	busyNS   int64 // accumulated per active lap, up to last
	laps     int64
}

// advance accounts the time since the latest Start/End to the laps active
// over it. Callers hold s.mu.
func (s *Span) advance() {
	t := s.now()
	if s.active > 0 {
		s.extentNS += t - s.last
		s.busyNS += int64(s.active) * (t - s.last)
	}
	s.last = t
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child returns the named child span, creating it on first use. The child
// is not started.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	c := s.children[name]
	if c == nil {
		c = &Span{name: name, now: s.now}
		if s.children == nil {
			s.children = map[string]*Span{}
		}
		s.children[name] = c
		s.order = append(s.order, c)
	}
	s.mu.Unlock()
	return c
}

// Start begins a lap. Laps may nest or overlap.
func (s *Span) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.advance()
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
	s.mu.Unlock()
}

// End finishes one lap. An End without a matching Start is ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.active > 0 {
		s.advance()
		s.active--
		s.laps++
	}
	s.mu.Unlock()
}

// read returns one consistent view of the span's accounting, running laps
// included.
func (s *Span) read() (extentNS, busyNS int64, peak int, laps int64) {
	if s == nil {
		return 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active > 0 {
		s.advance()
	}
	return s.extentNS, s.busyNS, s.peak, s.laps
}

// DurationNS returns the span's wall-clock extent in nanoseconds:
// overlapping laps are counted once, and a running lap is included.
func (s *Span) DurationNS() int64 {
	d, _, _, _ := s.read()
	return d
}

// BusyNS returns the summed duration of every lap in nanoseconds,
// including running ones: the work done under the span, where DurationNS
// is the time it took.
func (s *Span) BusyNS() int64 {
	_, b, _, _ := s.read()
	return b
}

// Peak returns the most laps that were ever active at once (1 for a span
// only ever used serially, 0 for one never started).
func (s *Span) Peak() int {
	_, _, p, _ := s.read()
	return p
}

// Laps returns the number of completed laps.
func (s *Span) Laps() int64 {
	_, _, _, n := s.read()
	return n
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.order...)
	s.mu.Unlock()
	return out
}

// SpanSnapshot is a point-in-time view of a span subtree.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	NS       int64          `json:"ns"`      // wall-clock extent
	BusyNS   int64          `json:"busy_ns"` // summed lap time
	Peak     int            `json:"peak"`    // most concurrent laps
	Laps     int64          `json:"laps"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot returns a consistent copy of the span subtree.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	snap := SpanSnapshot{Name: s.name}
	snap.NS, snap.BusyNS, snap.Peak, snap.Laps = s.read()
	for _, c := range s.Children() {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}
