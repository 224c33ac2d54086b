package telemetry

import (
	"math"
	"sync"
	"time"
)

// The sketch histogram is the registry's one distribution type, from a
// host's probe to the region's fleet view: a DDSketch-style fixed
// log-bucket layout whose buckets are a pure function of the value,
// never of the data seen so far. Because every sketch in the fleet shares the one layout,
// merging is exact — bucket counts add — and therefore associative and
// commutative: a host's summary merged up through any domain order
// yields byte-identical fleet quantiles. Quantiles are approximate with
// a bounded relative error; counts, sum, min and max stay exact.

const (
	// SketchGamma is the fixed log-bucket base: bucket i covers
	// (gamma^(i-1), gamma^i]. It is a package constant — never a
	// per-sketch parameter — so any two sketches are mergeable.
	SketchGamma = 1.05
	// SketchRelativeError bounds a quantile's relative error:
	// (gamma-1)/(gamma+1), about 2.44% at gamma 1.05.
	SketchRelativeError = (SketchGamma - 1) / (SketchGamma + 1)
)

// sketchInvLnGamma = 1/ln(gamma), precomputed for the bucket index map.
var sketchInvLnGamma = 1 / math.Log(SketchGamma)

// sketchIndex maps a positive value to its bucket index
// ceil(log_gamma(v)). Values <= 0 never reach it (they land in the zero
// bucket).
func sketchIndex(v float64) int {
	return int(math.Ceil(math.Log(v) * sketchInvLnGamma))
}

// sketchValue is bucket i's representative value: the point whose
// relative distance to both bucket edges is the error bound.
func sketchValue(i int) float64 {
	return 2 * math.Pow(SketchGamma, float64(i)) / (SketchGamma + 1)
}

// SketchSnapshot is the serialized form of a Sketch: the dense bucket
// counts with their starting index, plus the exact scalar aggregates.
// It is what msg.TelemetrySummary ships up the hierarchy; merging a
// snapshot into another sketch is exact. The JSON field names are part
// of the wire protocol (see docs/WIRE.md).
type SketchSnapshot struct {
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Zero   uint64   `json:"zero,omitempty"`
	Base   int      `json:"base,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
}

// NamedSketchSnapshot pairs a sketch snapshot with its metric name for
// transport in a telemetry summary.
type NamedSketchSnapshot struct {
	Name   string         `json:"name"`
	Sketch SketchSnapshot `json:"sketch"`
}

// Sketch is a mergeable log-bucket histogram for non-negative
// observations (latencies in nanoseconds, load factors). Observations
// <= 0 are counted in a dedicated zero bucket. Storage is one dense
// contiguous counts slice covering [base, base+len) — for a metric
// spanning a couple of decades that is a few hundred bytes per sketch,
// which is what lets every host in a 10k fleet carry its own. Safe for
// concurrent use.
type Sketch struct {
	mu     sync.Mutex
	zero   uint64
	base   int // bucket index of counts[0]
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewSketch creates an empty sketch. Most callers use Registry.Sketch
// or Summary.Sketch instead.
func NewSketch() *Sketch { return &Sketch{} }

// NewHistogram is a shim for the frozen benchmark/ sources, which still
// construct the deleted windowed histogram by name. Delete with
// telemetry.histogram_observe_ns in the next benchmark-only PR.
func NewHistogram(Clock, time.Duration) *Sketch { return NewSketch() }

// ensure grows the dense bucket range to include index i. Caller holds mu.
func (s *Sketch) ensure(i int) {
	if len(s.counts) == 0 {
		s.base = i
		s.counts = append(s.counts, 0)
		return
	}
	switch {
	case i < s.base:
		grown := make([]uint64, (s.base-i)+len(s.counts))
		copy(grown[s.base-i:], s.counts)
		s.counts = grown
		s.base = i
	case i >= s.base+len(s.counts):
		need := i - s.base + 1
		for len(s.counts) < need {
			s.counts = append(s.counts, 0)
		}
	}
}

// Observe records one value; on a nil *Sketch it does nothing.
func (s *Sketch) Observe(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v <= 0 {
		s.zero++
		return
	}
	i := sketchIndex(v)
	s.ensure(i)
	s.counts[i-s.base]++
}

// ObserveDuration records a duration in nanoseconds.
func (s *Sketch) ObserveDuration(d time.Duration) { s.Observe(float64(d)) }

// MergeSnapshot folds a serialized sketch (e.g. one received in a
// msg.TelemetrySummary) into s. Exact: bucket counts add, so merge order
// can never change the resulting quantiles.
func (s *Sketch) MergeSnapshot(sn SketchSnapshot) {
	if sn.Count == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		s.min, s.max = sn.Min, sn.Max
	} else {
		if sn.Min < s.min {
			s.min = sn.Min
		}
		if sn.Max > s.max {
			s.max = sn.Max
		}
	}
	s.count += sn.Count
	s.sum += sn.Sum
	s.zero += sn.Zero
	for off, c := range sn.Counts {
		if c == 0 {
			continue
		}
		i := sn.Base + off
		s.ensure(i)
		s.counts[i-s.base] += c
	}
}

// Snapshot exports the sketch with leading/trailing empty buckets
// trimmed, so an idle metric serializes to a handful of bytes.
func (s *Sketch) Snapshot() SketchSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Sketch) snapshotLocked() SketchSnapshot {
	sn := SketchSnapshot{Count: s.count, Sum: s.sum, Min: s.min, Max: s.max, Zero: s.zero}
	lo, hi := 0, len(s.counts)
	for lo < hi && s.counts[lo] == 0 {
		lo++
	}
	for hi > lo && s.counts[hi-1] == 0 {
		hi--
	}
	if lo < hi {
		sn.Base = s.base + lo
		sn.Counts = append([]uint64(nil), s.counts[lo:hi]...)
	}
	return sn
}

// drain snapshots the sketch and empties it under one lock, keeping its
// bucket storage (and the handle every observer holds) intact — a
// summary window's close.
func (s *Sketch) drain() SketchSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snapshotLocked()
	s.zero, s.count, s.sum, s.min, s.max = 0, 0, 0, 0, 0
	clear(s.counts)
	return sn
}

// Count returns the total number of observations.
func (s *Sketch) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Mean returns the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min and Max are exact over every observation (0 when empty).
func (s *Sketch) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

func (s *Sketch) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank over the
// bucket counts, within SketchRelativeError of the exact value and
// clamped into [Min, Max]. It reports false when the sketch is empty.
func (s *Sketch) Quantile(q float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *Sketch) quantileLocked(q float64) (float64, bool) {
	if q <= 0 || q > 1 || s.count == 0 {
		return 0, false
	}
	rank := uint64(float64(s.count)*q + 0.9999999999) // ceil(q*n) without FP drama
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	cum := s.zero
	if rank <= cum {
		return s.clamp(0), true
	}
	for off, c := range s.counts {
		cum += c
		if cum >= rank {
			return s.clamp(sketchValue(s.base + off)), true
		}
	}
	return s.max, true
}

// clamp pins a representative bucket value into the exact observed
// range, so the reported extremes can never exceed reality.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Quantiles returns p50, p95 and p99 in one locked pass.
func (s *Sketch) Quantiles() (p50, p95, p99 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p50, _ = s.quantileLocked(0.50)
	p95, _ = s.quantileLocked(0.95)
	p99, _ = s.quantileLocked(0.99)
	return
}
