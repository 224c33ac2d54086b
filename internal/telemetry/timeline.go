package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Every timeline is bounded by construction.
const (
	// DefaultTimelineCapacity bounds retained samples per series, raw
	// and per rollup tier. At a 1-second cadence this keeps ~8.5 minutes
	// of raw history per metric.
	DefaultTimelineCapacity = 512
	// MaxTimelineSeries caps how many distinct series a recorder tracks.
	// Samples for series beyond it are not recorded and are counted in
	// the registry's "telemetry.timeline.evicted" counter: a runaway
	// metric-name cardinality costs a counter, not the process.
	MaxTimelineSeries = 512
)

// Point is one flight-recorder observation of one metric.
type Point struct {
	At time.Duration `json:"at_ns"`
	V  float64       `json:"v"`
}

// Series is the exported form of one recorded metric: its samples in
// chronological order. Kind distinguishes how the source metric behaves
// ("counter" values are cumulative, "gauge" instantaneous, "quantile"
// a histogram percentile).
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// tlSeries is one fixed-capacity ring of samples.
type tlSeries struct {
	kind string
	buf  []Point
	head int // next write position
	n    int // valid samples (<= cap)
}

func (s *tlSeries) push(p Point) {
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
}

// points returns the ring's contents oldest-first.
func (s *tlSeries) points() []Point {
	out := make([]Point, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// rollupSeries accumulates one metric's raw samples into fixed
// time-resolution buckets: when a sample lands in a new bucket, the
// previous bucket closes and its aggregate is pushed onto the tier's
// ring. Counter series keep the bucket's last value (they are
// cumulative); gauge and quantile series keep the bucket mean.
type rollupSeries struct {
	ring    tlSeries
	bucket  time.Duration // start of the bucket being accumulated
	started bool
	n       int
	sum     float64
	last    float64
}

// rollupTier is one downsampling resolution (e.g. 5m) over every
// recorded series.
type rollupTier struct {
	res    time.Duration
	series map[string]*rollupSeries
}

// roll feeds one raw sample into the tier.
func (rt *rollupTier) roll(name, kind string, p Point) {
	rs, ok := rt.series[name]
	if !ok {
		rs = &rollupSeries{ring: tlSeries{kind: kind, buf: make([]Point, DefaultTimelineCapacity)}}
		rt.series[name] = rs
	}
	b := p.At - (p.At % rt.res)
	if rs.started && b != rs.bucket {
		v := rs.last
		if kind != "counter" {
			v = rs.sum / float64(rs.n)
		}
		rs.ring.push(Point{At: rs.bucket, V: v})
		rs.n, rs.sum = 0, 0
	}
	rs.started = true
	rs.bucket = b
	rs.n++
	rs.sum += p.V
	rs.last = p.V
}

// DefaultRollupResolutions are the downsampling tiers EnableRollup arms:
// raw samples roll up into 5-minute buckets, and (independently, from
// the same raw stream) into 1-hour buckets.
var DefaultRollupResolutions = []time.Duration{5 * time.Minute, time.Hour}

// Timeline is the flight recorder: a fixed-capacity ring-buffer
// time-series store (MaxTimelineSeries series of DefaultTimelineCapacity
// samples each) fed by periodically sampling a Registry on its own
// clock. Each counter and gauge becomes one series; each histogram
// contributes p50 and p95 series ("<name>.p50", "<name>.p95"). When a
// ring fills, the oldest sample is overwritten — the recorder always
// holds the most recent history.
//
// Sampling only reads registry state, so attaching a Timeline to a
// deterministic simulation changes nothing the simulation computes, and
// two same-seed runs record byte-identical timelines. Safe for
// concurrent use (live mode samples from a ticker goroutine while HTTP
// scrapes read).
type Timeline struct {
	mu       sync.Mutex
	reg      *Registry
	series   map[string]*tlSeries
	samples  uint64
	rollups  []*rollupTier
	evictedC *Counter // telemetry.timeline.evicted; nil without a registry
}

// NewTimeline creates a flight recorder over reg.
func NewTimeline(reg *Registry) *Timeline {
	tl := &Timeline{reg: reg, series: make(map[string]*tlSeries)}
	if reg != nil {
		tl.evictedC = reg.Counter("telemetry.timeline.evicted")
	}
	return tl
}

// EnableRollup arms time-based downsampling at DefaultRollupResolutions:
// every raw sample also feeds one accumulator per resolution tier, and
// each completed bucket (a sample landed past its end) pushes one
// aggregated point onto that tier's own ring of DefaultTimelineCapacity
// points. Bucket boundaries are pure functions of the sample clock, so
// rolled-up timelines are as deterministic as raw ones. Call before
// sampling starts; the bucket still accumulating is not exported.
func (tl *Timeline) EnableRollup() {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, res := range DefaultRollupResolutions {
		tl.rollups = append(tl.rollups, &rollupTier{res: res, series: make(map[string]*rollupSeries)})
	}
}

// Samples returns how many Sample passes have run.
func (tl *Timeline) Samples() uint64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.samples
}

func (tl *Timeline) record(name, kind string, p Point) {
	s, ok := tl.series[name]
	if !ok {
		if len(tl.series) >= MaxTimelineSeries {
			tl.evictedC.Inc()
			return
		}
		s = &tlSeries{kind: kind, buf: make([]Point, DefaultTimelineCapacity)}
		tl.series[name] = s
	}
	s.push(p)
	for _, rt := range tl.rollups {
		rt.roll(name, s.kind, p)
	}
}

// Sample takes one registry snapshot at the current clock instant and
// appends every metric's value to its ring.
func (tl *Timeline) Sample() {
	if tl.reg == nil {
		return
	}
	snap := tl.reg.Snapshot()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.samples++
	for _, c := range snap.Counters {
		tl.record(c.Name, "counter", Point{At: snap.At, V: float64(c.Value)})
	}
	for _, g := range snap.Gauges {
		tl.record(g.Name, "gauge", Point{At: snap.At, V: g.Value})
	}
	for _, h := range snap.Histograms {
		tl.record(h.Name+".p50", "quantile", Point{At: snap.At, V: h.P50})
		tl.record(h.Name+".p95", "quantile", Point{At: snap.At, V: h.P95})
	}
}

// Series exports every recorded series name-sorted with points in
// chronological order — a deterministic rendering for a deterministic
// simulation.
func (tl *Timeline) Series() []Series {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	names := make([]string, 0, len(tl.series))
	for n := range tl.series {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Series, 0, len(names))
	for _, n := range names {
		s := tl.series[n]
		out = append(out, Series{Name: n, Kind: s.kind, Points: s.points()})
	}
	return out
}

// SeriesByName returns one recorded series and whether it exists.
func (tl *Timeline) SeriesByName(name string) (Series, bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	s, ok := tl.series[name]
	if !ok {
		return Series{}, false
	}
	return Series{Name: name, Kind: s.kind, Points: s.points()}, true
}

// RollupDump is one downsampling tier's retained history: every series
// that has at least one completed bucket at this resolution.
type RollupDump struct {
	Resolution time.Duration `json:"resolution_ns"`
	Capacity   int           `json:"capacity"`
	Series     []Series      `json:"series"`
}

// TimelineDump is the JSON document served at /debug/qos/timeline and
// dumped by qosd -report: the recorder's full retained history.
type TimelineDump struct {
	// At is the clock instant the dump was taken.
	At time.Duration `json:"at_ns"`
	// Samples counts recorder passes since start; Capacity is the ring
	// size, so Samples > Capacity means old samples have been overwritten.
	Samples  uint64   `json:"samples"`
	Capacity int      `json:"capacity"`
	Series   []Series `json:"series"`
	// Rollups holds the downsampled tiers, coarsest last. Absent (and
	// absent from the JSON) unless EnableRollup was called, so recorders
	// without downsampling dump byte-identically to before it existed.
	Rollups []RollupDump `json:"rollups,omitempty"`
}

// Dump assembles the exportable timeline document. A nil Timeline dumps
// an empty (but valid) document.
func (tl *Timeline) Dump() TimelineDump {
	d := TimelineDump{Series: []Series{}}
	if tl == nil {
		return d
	}
	if tl.reg != nil {
		d.At = tl.reg.Clock()()
	}
	d.Samples = tl.Samples()
	d.Capacity = DefaultTimelineCapacity
	d.Series = tl.Series()
	d.Rollups = tl.rollupDumps()
	return d
}

// rollupDumps exports every rollup tier name-sorted, completed buckets
// only.
func (tl *Timeline) rollupDumps() []RollupDump {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var out []RollupDump
	for _, rt := range tl.rollups {
		rd := RollupDump{Resolution: rt.res, Capacity: DefaultTimelineCapacity, Series: []Series{}}
		names := make([]string, 0, len(rt.series))
		for n, rs := range rt.series {
			if rs.ring.n > 0 {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			rs := rt.series[n]
			rd.Series = append(rd.Series, Series{Name: n, Kind: rs.ring.kind, Points: rs.ring.points()})
		}
		out = append(out, rd)
	}
	return out
}

// WriteJSON renders the dump with stable indentation (byte-identical
// across same-seed sim runs).
func (d TimelineDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
