package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule; sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	i := rank(len(sorted), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples; n-rank samples lie beyond it.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// reportable are the tail percentiles the benchmark may print, lowest
// first.
var reportable = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// highestPercentile is the reporting rule: the highest of the reportable
// percentiles that still has at least ten samples beyond it, 0 when even
// the median has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range reportable {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// supported reports whether q has at least ten of n samples beyond it.
func supported(n int, q float64) bool { return n-rank(n, q) >= 10 }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the driver computes spreads from.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j) // after clamping, as Python does
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// undisturbed is the estimator the end-to-end timings use over a run's
// blocks (or iterations, or batches): the quartile on the good side — the
// first quartile of a cost, the third of a rate. On the reference box
// (two vCPUs of a shared host) a neighbour makes the same code 10–60%
// slower for seconds at a time, never faster, so the disturbed blocks
// all lie on one side; the quartile ignores them as long as most of the
// run was quiet and, unlike the single best block, is not set by one
// lucky block either.
func undisturbed(v []float64, lowerIsBetter bool) float64 {
	q1, q3 := quartiles(v)
	if lowerIsBetter {
		return q1
	}
	return q3
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// span is one timed interval of the traced phase. Spans of one episode
// share its id; parent is the index of the enclosing span in the same
// slice, -1 for the episode's root.
type span struct {
	name       string
	episode    int
	parent     int
	start, end int64 // ns since the run's clock origin
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (overlapping children are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < edge {
				from = edge
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// toFloats converts nanosecond samples to the given unit.
func toFloats(ns []int64, perUnit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / perUnit
	}
	return out
}
