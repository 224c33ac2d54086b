// Package telemetry is the measurement substrate of the control loop: a
// lock-cheap metrics registry (counters, gauges, sketch histograms) and
// a causal trace log that stitches one QoS violation's lifecycle — sensor
// alarm → coordinator violation → host-manager diagnosis → directive or
// escalation → resource adaptation → recovery — into a single spanned
// record with a time-to-recovery.
//
// Everything runs on an injected clock, so the same code measures the
// virtual clock of the simulation (deterministic: two runs with the same
// seed produce byte-identical snapshots) and the wall clock in live mode.
//
// Hot-path discipline: components resolve their Counter/Gauge/Sketch
// handles once at attach time (SetTelemetry/SetMetrics/constructor) —
// that call is the complete list of names the component will ever
// write, each present at zero from then on — and update them with a
// single atomic operation (counters, gauges) or a short mutex
// (sketches). The registry lock is only taken at registration and
// snapshot time. The one data-keyed family is the event log's
// "log.<component>.<level>" error-class counters.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"softqos/internal/runtime"
)

// Clock returns the current time as a duration from an arbitrary fixed
// origin — the virtual clock in simulation, wall clock in live mode.
// It is the runtime seam's clock type (see internal/runtime).
type Clock = runtime.Clock

// Counter is a monotonically increasing count. Safe for concurrent use.
// Inc and Add on a nil *Counter do nothing, so a component whose metrics
// are not attached needs no guard.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins instantaneous measurement. Safe for
// concurrent use. Set on a nil *Gauge does nothing.
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (not atomic against concurrent Set; the
// management plane mutates each gauge from one goroutine).
func (g *Gauge) Add(delta float64) { g.Set(g.Value() + delta) }

// Value returns the last recorded value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry owns a flat, name-keyed set of metrics. Metric names are
// dot-separated paths, lowercase, with the owning component first:
// "instrument.alarms", "sched.client-host.dispatches",
// "netsim.sw-core.queued_bytes".
type Registry struct {
	clock Clock

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	sketches map[string]*Sketch
}

// NewRegistry creates a registry on the given clock (virtual or wall).
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		sketches: make(map[string]*Sketch),
	}
}

// Clock returns the registry's primary clock.
func (r *Registry) Clock() Clock { return r.clock }

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at snapshot
// time (e.g. a switch's instantaneous queue depth). Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Sketch returns (registering on first use) the named sketch
// histogram, the registry's one distribution kind: exact
// count/sum/min/max/mean, quantiles within SketchRelativeError. It
// exports as a HistogramValue in snapshots.
func (r *Registry) Sketch(name string) *Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sketches[name]
	if !ok {
		s = NewSketch()
		r.sketches[name] = s
	}
	return s
}
