package telemetry

import (
	"slices"
	"strings"
	"sync"
)

// Summary is one tier's telemetry accumulator for the federated
// collection plane: counters (deltas over the current flush window),
// maxima (window-max gauges) and mergeable sketches. A host-side
// exporter fills one and drains it into a msg.TelemetrySummary every
// flush window; aggregators absorb inbound summaries into their own. All
// merge operations are exact, so the fleet-level aggregate is
// independent of arrival order. Every list is kept sorted by name, so a
// lookup is a binary search and a window that sees the same names as
// the last one allocates nothing. Safe for concurrent use.
type Summary struct {
	mu       sync.Mutex
	counters []NamedValue
	maxima   []NamedValue
	sketches []namedSketch
}

// namedSketch is one registered sketch handle of a Summary.
type namedSketch struct {
	name string
	sk   *Sketch
}

// NewSummary creates an empty summary.
func NewSummary() *Summary { return &Summary{} }

// valueIndex returns name's index in the name-sorted list, inserting a
// zero entry when it is absent (added reports the insert).
func valueIndex(vs *[]NamedValue, name string) (i int, added bool) {
	i, found := slices.BinarySearchFunc(*vs, name, func(v NamedValue, n string) int {
		return strings.Compare(v.Name, n)
	})
	if !found {
		*vs = slices.Insert(*vs, i, NamedValue{Name: name})
	}
	return i, !found
}

// AddCounter accumulates a counter delta for the current window.
func (s *Summary) AddCounter(name string, delta float64) {
	s.Absorb([]NamedValue{{Name: name, Value: delta}}, nil, nil)
}

// SetMax records a window-max gauge: the largest value observed since
// the last Drain wins.
func (s *Summary) SetMax(name string, v float64) {
	s.Absorb(nil, []NamedValue{{Name: name, Value: v}}, nil)
}

// Sketch returns (registering on first use) the named sketch. The
// handle stays valid across Drain, so observers resolve it once.
func (s *Summary) Sketch(name string) *Sketch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sketchLocked(name)
}

func (s *Summary) sketchLocked(name string) *Sketch {
	i, found := slices.BinarySearchFunc(s.sketches, name, func(ns namedSketch, n string) int {
		return strings.Compare(ns.name, n)
	})
	if !found {
		s.sketches = slices.Insert(s.sketches, i, namedSketch{name: name, sk: NewSketch()})
	}
	return s.sketches[i].sk
}

// Absorb merges one exported window (counters add, maxima max-merge,
// sketches merge exactly) into the summary — the aggregation step a
// domain runs per inbound host summary.
func (s *Summary) Absorb(counters, maxima []NamedValue, sketches []NamedSketchSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range counters {
		i, _ := valueIndex(&s.counters, c.Name)
		s.counters[i].Value += c.Value
	}
	for _, m := range maxima {
		if i, added := valueIndex(&s.maxima, m.Name); added || m.Value > s.maxima[i].Value {
			s.maxima[i].Value = m.Value
		}
	}
	for _, ns := range sketches {
		s.sketchLocked(ns.Name).MergeSnapshot(ns.Sketch)
	}
}

// Drain closes the window: it returns the window's counters and maxima
// and a snapshot of every non-empty sketch, all name-sorted, and empties
// the window, under one lock so that nothing recorded meanwhile is lost.
// ok is false when the window held nothing worth shipping. The returned
// slices are the caller's; sketch handles stay valid.
func (s *Summary) Drain() (counters, maxima []NamedValue, sketches []NamedSketchSnapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ns := range s.sketches {
		sn := ns.sk.drain()
		if sn.Count == 0 {
			continue
		}
		if sketches == nil {
			sketches = make([]NamedSketchSnapshot, 0, len(s.sketches)-i)
		}
		sketches = append(sketches, NamedSketchSnapshot{Name: ns.name, Sketch: sn})
	}
	counters, maxima = cloneValues(s.counters), cloneValues(s.maxima)
	s.counters, s.maxima = s.counters[:0], s.maxima[:0]
	return counters, maxima, sketches, counters != nil || maxima != nil || sketches != nil
}

// Export returns copies of the window's contents, as Drain does, but
// leaves the summary untouched.
func (s *Summary) Export() (counters, maxima []NamedValue, sketches []NamedSketchSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ns := range s.sketches {
		if sn := ns.sk.Snapshot(); sn.Count > 0 {
			sketches = append(sketches, NamedSketchSnapshot{Name: ns.name, Sketch: sn})
		}
	}
	return cloneValues(s.counters), cloneValues(s.maxima), sketches
}

// cloneValues copies a value list to an exact-size slice (nil when empty).
func cloneValues(vs []NamedValue) []NamedValue {
	if len(vs) == 0 {
		return nil
	}
	return slices.Clone(vs)
}

// NamedValue is one named scalar: a Summary counter or maximum, as it
// travels in a msg.TelemetrySummary and renders in a SummaryView.
type NamedValue struct {
	Name  string
	Value float64
}

// SummaryView is the render-ready form of a Summary: name-sorted
// scalars plus the sketches rendered as histogram rows, exactly the
// shape the export surface already knows how to draw.
type SummaryView struct {
	Hosts      uint64
	Counters   []NamedValue
	Maxima     []NamedValue
	Histograms []HistogramValue
}

// View assembles the summary's render-ready form. Hosts is left zero;
// the aggregator that knows its fan-in fills it.
func (s *Summary) View() SummaryView {
	counters, maxima, sketches := s.Export()
	v := SummaryView{Counters: counters, Maxima: maxima}
	for _, ns := range sketches {
		sk := NewSketch()
		sk.MergeSnapshot(ns.Sketch)
		p50, p95, p99 := sk.Quantiles()
		v.Histograms = append(v.Histograms, HistogramValue{
			Name: ns.Name, Count: sk.Count(), Min: sk.Min(), Mean: sk.Mean(),
			P50: p50, P95: p95, P99: p99, Max: sk.Max(),
		})
	}
	return v
}

// FederatedView is the fleet-level observability document a terminal
// aggregator (the region) serves: the merged fleet summary plus one
// entry per direct child (per DOMAIN — never per host; the view is
// renderable for a 10k-host fleet precisely because its size scales
// with the domain count).
type FederatedView struct {
	Tier      string
	Hosts     uint64
	Summaries uint64
	Fleet     SummaryView
	Children  []ChildView
}

// ChildView is one direct child's aggregate within a FederatedView.
type ChildView struct {
	Name      string
	Hosts     uint64
	Summaries uint64
	Summary   SummaryView
}
