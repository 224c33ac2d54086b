// Package instrument implements the in-process instrumentation of Section
// 5: sensors that collect QoS metrics and raise alarms against
// policy-derived thresholds, actuators that exert control, and the
// per-process coordinator that tracks policy adherence and notifies the
// QoS Host Manager on violations.
//
// Sensors are passive: probes embedded in the application push
// observations in (Tick, Set), or the surrounding environment schedules
// Sample() polls. This keeps the same code running under the virtual
// clock of the simulation and under the wall clock in live mode — the
// paper's overhead measurements (≈11 µs per instrumentation pass) are
// taken on exactly this code path.
package instrument

import (
	"fmt"
	"math"
	"time"

	"softqos/internal/runtime"
	"softqos/internal/telemetry"
)

// Clock returns the current (virtual or wall) time as a duration from an
// arbitrary fixed origin — the runtime seam's clock type.
type Clock = runtime.Clock

// AlarmFunc receives sensor condition evaluations: condID identifies the
// watched condition, satisfied its current truth, value the reading that
// produced it.
type AlarmFunc func(condID int, satisfied bool, value float64)

// watch is one threshold registered by the coordinator (the sensor "init"
// call of §5.2). A non-zero horizon makes the watch predictive: it
// evaluates the value extrapolated horizon into the future along the
// observed trend, so violations are detected before they occur (the
// proactive QoS of the paper's future work).
type watch struct {
	id        int
	op        string // "<", "<=", ">", ">=", "==", "!="
	threshold float64
	horizon   time.Duration
	satisfied bool
	evaluated bool
}

func (w *watch) eval(v float64) bool {
	switch w.op {
	case "<":
		return v < w.threshold
	case "<=":
		return v <= w.threshold
	case ">":
		return v > w.threshold
	case ">=":
		return v >= w.threshold
	case "==":
		return v == w.threshold
	case "!=":
		return v != w.threshold
	default:
		return false
	}
}

// Sensor is the common interface of all sensors.
type Sensor interface {
	// ID returns the sensor identifier referenced by policies.
	ID() string
	// Attribute returns the process attribute the sensor monitors (§5.2
	// assumes one attribute per sensor).
	Attribute() string
	// Read returns the current attribute value.
	Read() float64
	// Watch registers a threshold condition; alarms are delivered to the
	// sensor's alarm function on evaluation changes and, while
	// unsatisfied, on every subsequent evaluation (so managers can keep
	// adjusting until compliance).
	Watch(condID int, op string, threshold float64)
	// Unwatch removes a condition.
	Unwatch(condID int)
	// UpdateWatch changes a condition's threshold at run time (§9:
	// "we are able to change QoS requirements while an application is
	// executing").
	UpdateWatch(condID int, op string, threshold float64) error
	// SetHorizon makes a condition predictive: it is evaluated against
	// the value extrapolated d into the future along the observed trend
	// (0 restores reactive evaluation).
	SetHorizon(condID int, d time.Duration) error
	// SetAlarmFunc installs the alarm sink (the coordinator).
	SetAlarmFunc(AlarmFunc)
	// SetEnabled enables or disables the sensor; disabled sensors ignore
	// observations and raise no alarms.
	SetEnabled(bool)
	// Enabled reports whether the sensor is enabled.
	Enabled() bool
}

// baseSensor carries the identity, enablement and threshold machinery
// shared by all sensor kinds.
type baseSensor struct {
	id      string
	attr    string
	enabled bool
	alarm   AlarmFunc
	watches []*watch
	value   float64
	valid   bool // a value has been produced

	// Trend estimation for predictive watches: an EWMA of the value's
	// rate of change per second.
	clockFn   Clock
	slope     float64
	prevValue float64
	prevAt    time.Duration
	haveTrend bool

	// tPasses counts passes; installed by the owning coordinator.
	tPasses *telemetry.Counter
}

// setPassTelemetry wires per-pass accounting; the coordinator finds it
// through an unexported interface assertion, so the Sensor interface is
// unchanged.
func (b *baseSensor) setPassTelemetry(passes *telemetry.Counter) { b.tPasses = passes }

func newBase(id, attr string, clock Clock) baseSensor {
	return baseSensor{id: id, attr: attr, enabled: true, clockFn: clock}
}

func (b *baseSensor) ID() string                { return b.id }
func (b *baseSensor) Attribute() string         { return b.attr }
func (b *baseSensor) Read() float64             { return b.value }
func (b *baseSensor) SetAlarmFunc(fn AlarmFunc) { b.alarm = fn }
func (b *baseSensor) SetEnabled(on bool)        { b.enabled = on }
func (b *baseSensor) Enabled() bool             { return b.enabled }

func (b *baseSensor) Watch(condID int, op string, threshold float64) {
	b.watches = append(b.watches, &watch{id: condID, op: op, threshold: threshold})
	// Evaluate immediately against the current value if one exists.
	if b.valid {
		b.evaluate()
	}
}

func (b *baseSensor) Unwatch(condID int) {
	for i, w := range b.watches {
		if w.id == condID {
			b.watches = append(b.watches[:i:i], b.watches[i+1:]...)
			return
		}
	}
}

func (b *baseSensor) UpdateWatch(condID int, op string, threshold float64) error {
	for _, w := range b.watches {
		if w.id == condID {
			w.op = op
			w.threshold = threshold
			w.evaluated = false
			if b.valid {
				b.evaluate()
			}
			return nil
		}
	}
	return fmt.Errorf("instrument: sensor %s: no watch %d", b.id, condID)
}

func (b *baseSensor) SetHorizon(condID int, d time.Duration) error {
	for _, w := range b.watches {
		if w.id == condID {
			w.horizon = d
			w.evaluated = false
			if b.valid {
				b.evaluate()
			}
			return nil
		}
	}
	return fmt.Errorf("instrument: sensor %s: no watch %d", b.id, condID)
}

// predicted extrapolates the current value d into the future along the
// trend estimate.
func (b *baseSensor) predicted(d time.Duration) float64 {
	if !b.haveTrend || d <= 0 {
		return b.value
	}
	return b.value + b.slope*d.Seconds()
}

// produce records a new attribute value, updates the trend estimate and
// evaluates all watches.
func (b *baseSensor) produce(v float64) {
	if !b.enabled {
		return
	}
	if b.tPasses != nil {
		b.tPasses.Inc()
	}
	if b.clockFn != nil {
		now := b.clockFn()
		if b.valid && now > b.prevAt {
			inst := (v - b.prevValue) / (now - b.prevAt).Seconds()
			if b.haveTrend {
				const alpha = 0.4
				b.slope = alpha*inst + (1-alpha)*b.slope
			} else {
				b.slope = inst
				b.haveTrend = true
			}
		}
		b.prevValue = v
		b.prevAt = now
	}
	b.value = v
	b.valid = true
	b.evaluate()
}

func (b *baseSensor) evaluate() {
	for _, w := range b.watches {
		v := b.value
		if w.horizon > 0 {
			v = b.predicted(w.horizon)
		}
		sat := w.eval(v)
		changed := !w.evaluated || sat != w.satisfied
		w.satisfied = sat
		w.evaluated = true
		// Alarm on transitions, and keep alarming while unsatisfied so
		// downstream adaptation iterates toward compliance.
		if b.alarm != nil && (changed || !sat) {
			b.alarm(w.id, sat, b.value)
		}
	}
}

// RateSensor measures an event rate (e.g. displayed frames per second)
// over a fixed window, with EWMA smoothing and a spike filter ("Unusual
// spikes are filtered out", Example 2).
type RateSensor struct {
	baseSensor
	clock  Clock
	window time.Duration
	alpha  float64 // EWMA weight of the newest window

	count       int
	windowStart time.Duration
	started     bool
	smoothed    float64
	haveSmooth  bool
	spikes      int // consecutive out-of-trend windows observed
}

// NewRateSensor creates a rate sensor with the given reporting window.
func NewRateSensor(id, attr string, clock Clock, window time.Duration) *RateSensor {
	if window <= 0 {
		window = time.Second
	}
	return &RateSensor{
		baseSensor: newBase(id, attr, clock),
		clock:      clock,
		window:     window,
		alpha:      0.5,
	}
}

// Tick is the probe entry point: call once per event (e.g. per displayed
// frame). When a window elapses, the rate is folded into the smoothed
// estimate and thresholds are evaluated.
func (s *RateSensor) Tick() {
	if !s.enabled {
		return
	}
	now := s.clock()
	if !s.started {
		s.started = true
		s.windowStart = now
	}
	// Close any windows that elapsed before this event, then count the
	// event into the current window.
	s.rollover(now)
	s.count++
}

// Flush closes the current window early (used at shutdown or by polled
// evaluation when events stop arriving entirely — a stalled stream must
// still produce low-rate readings).
func (s *RateSensor) Flush() {
	if !s.enabled {
		return
	}
	if !s.started {
		// A stream that has produced no event at all must still become
		// observable: start the window so subsequent flushes read ~0
		// instead of staying silent forever (dead-stream detection).
		s.started = true
		s.windowStart = s.clock()
		return
	}
	s.rollover(s.clock())
}

func (s *RateSensor) rollover(now time.Duration) {
	elapsed := now - s.windowStart
	if elapsed < s.window {
		return
	}
	// Account every complete window that passed, including empty ones.
	for elapsed >= s.window {
		raw := float64(s.count) / s.window.Seconds()
		s.fold(raw)
		s.count = 0
		s.windowStart += s.window
		elapsed -= s.window
	}
	s.produce(s.smoothed)
}

func (s *RateSensor) fold(raw float64) {
	if !s.haveSmooth {
		s.smoothed = raw
		s.haveSmooth = true
		return
	}
	// Spike filter: ignore a single window that deviates wildly from the
	// trend; accept it if it persists (a real level change).
	if s.smoothed > 0 {
		dev := math.Abs(raw-s.smoothed) / s.smoothed
		if dev > 2.0 && s.spikes == 0 {
			s.spikes++
			return
		}
	}
	s.spikes = 0
	s.smoothed = s.alpha*raw + (1-s.alpha)*s.smoothed
}

// JitterSensor measures timing irregularity of an event stream: the EWMA
// of |inter-arrival − nominal| / nominal. A perfectly paced stream reads
// 0; bursts and stalls push it up.
type JitterSensor struct {
	baseSensor
	clock   Clock
	nominal time.Duration
	last    time.Duration
	haveOne bool
	ewma    float64
	alpha   float64
	every   int // evaluate thresholds every N ticks
	ticks   int
}

// NewJitterSensor creates a jitter sensor for a stream whose nominal
// inter-event spacing is nominal.
func NewJitterSensor(id, attr string, clock Clock, nominal time.Duration) *JitterSensor {
	return &JitterSensor{
		baseSensor: newBase(id, attr, clock),
		clock:      clock,
		nominal:    nominal,
		alpha:      0.1,
		every:      8,
	}
}

// SetNominal changes the expected inter-event spacing (used when a
// degraded stream is renegotiated to a lower rate).
func (s *JitterSensor) SetNominal(d time.Duration) {
	if d > 0 {
		s.nominal = d
		s.ewma = 0
		s.haveOne = false
	}
}

// Tick is the probe entry point, called once per event.
func (s *JitterSensor) Tick() {
	if !s.enabled {
		return
	}
	now := s.clock()
	if !s.haveOne {
		s.haveOne = true
		s.last = now
		return
	}
	gap := now - s.last
	s.last = now
	dev := math.Abs(float64(gap-s.nominal)) / float64(s.nominal)
	s.ewma = s.alpha*dev + (1-s.alpha)*s.ewma
	s.ticks++
	if s.ticks%s.every == 0 {
		s.produce(s.ewma)
	}
}

// ValueSensor is a generic gauge: probes push absolute values (queue
// lengths, CPU usage, resident pages) with Set, or the environment calls
// Sample to pull from a source function.
type ValueSensor struct {
	baseSensor
	source func() float64
}

// NewValueSensor creates a gauge sensor; source may be nil when only Set
// is used. Predictive watches on a value sensor require a clock: use
// NewValueSensorClocked.
func NewValueSensor(id, attr string, source func() float64) *ValueSensor {
	return &ValueSensor{baseSensor: newBase(id, attr, nil), source: source}
}

// NewValueSensorClocked creates a gauge sensor with trend estimation.
func NewValueSensorClocked(id, attr string, clock Clock, source func() float64) *ValueSensor {
	return &ValueSensor{baseSensor: newBase(id, attr, clock), source: source}
}

// Set pushes a new reading (probe entry point).
func (s *ValueSensor) Set(v float64) { s.produce(v) }

// Sample pulls a reading from the source function. The surrounding
// environment (simulation ticker or live goroutine) decides the period.
func (s *ValueSensor) Sample() {
	if s.source != nil && s.enabled {
		s.produce(s.source())
	}
}

var (
	_ Sensor = (*RateSensor)(nil)
	_ Sensor = (*JitterSensor)(nil)
	_ Sensor = (*ValueSensor)(nil)
)
