// Package eventlog is the third observability pillar next to the metric
// registry and the violation trace log: a leveled, structured,
// allocation-light event record stream for the decisions the control
// plane otherwise makes silently — host evictions, cache gap re-pulls,
// rollout promotions, fault injections, transport drops.
//
// Records are bounded by a per-process ring buffer (oldest evicted
// first, counted on "telemetry.log.evicted"), run on the injected clock
// so simulation runs stay byte-deterministic, and carry the active
// telemetry.TraceContext so every record links back to the violation
// trace that caused it. High-volume (component, code) pairs are rate
// sampled with a seeded phase — levels Warn and above are always kept —
// so a chatty code cannot wash the ring.
//
// The disabled path is free: a nil *Logger accepts every call and
// allocates nothing, so components thread an optional logger without
// guarding each call site.
package eventlog

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"softqos/internal/telemetry"
)

// Level classifies a record's severity. Debug and Info are subject to
// sampling; Warn and Error are always kept.
type Level int8

// Levels, least to most severe.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

// String returns the lowercase level name.
func (l Level) String() string {
	if l < Debug || l > Error {
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
	return levelNames[l]
}

// ParseLevel maps a lowercase level name back to its Level.
func ParseLevel(s string) (Level, bool) {
	for i, n := range levelNames {
		if n == s {
			return Level(i), true
		}
	}
	return Debug, false
}

// Field is one structured key/value on a record: a string or a number.
// It is a value type so building fields at a call site does not allocate
// when the logger is disabled.
type Field struct {
	Key   string
	Str   string
	Num   float64
	isNum bool
}

// Str builds a string-valued field.
func Str(k, v string) Field { return Field{Key: k, Str: v} }

// Num builds a number-valued field.
func Num(k string, v float64) Field { return Field{Key: k, Num: v, isNum: true} }

// Int builds an integer-valued field.
func Int(k string, v int) Field { return Field{Key: k, Num: float64(v), isNum: true} }

// Value renders the field's value as text.
func (f Field) Value() string {
	if f.isNum {
		return strconv.FormatFloat(f.Num, 'g', -1, 64)
	}
	return f.Str
}

// Record is one logged event. Seq is the process-wide sequence number
// (monotonic, so eviction is observable as a gap at the ring's head).
type Record struct {
	Seq       uint64        `json:"seq"`
	At        time.Duration `json:"at_ns"`
	Level     Level         `json:"-"`
	Component string        `json:"component"`
	Code      string        `json:"code"`
	Trace     string        `json:"trace,omitempty"`
	Span      int           `json:"span,omitempty"`
	Fields    []Field       `json:"-"`
}

// appendJSON renders the record as one JSON object, field order fixed,
// so encoded output is byte-deterministic (no map iteration anywhere).
func (r *Record) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(r.At), 10)
	b = append(b, `,"level":"`...)
	b = append(b, r.Level.String()...)
	b = append(b, `","component":`...)
	b = strconv.AppendQuote(b, r.Component)
	b = append(b, `,"code":`...)
	b = strconv.AppendQuote(b, r.Code)
	if r.Trace != "" {
		b = append(b, `,"trace":`...)
		b = strconv.AppendQuote(b, r.Trace)
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, int64(r.Span), 10)
	}
	if len(r.Fields) > 0 {
		b = append(b, `,"fields":{`...)
		for i, f := range r.Fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, f.Key)
			b = append(b, ':')
			if f.isNum {
				b = strconv.AppendFloat(b, f.Num, 'g', -1, 64)
			} else {
				b = strconv.AppendQuote(b, f.Str)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// MarshalJSON renders the record with fixed field order.
func (r Record) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

// FieldString returns the value of the named string field ("" if absent).
func (r *Record) FieldString(key string) string {
	for _, f := range r.Fields {
		if f.Key == key && !f.isNum {
			return f.Str
		}
	}
	return ""
}

// Sink observes every kept record's classification. Views created with
// WithSink use it to route per-(component,level) error-class counters —
// e.g. into a telemetry.Summary so they federate host→domain→region on
// the existing TelemetrySummary path. Sinks run outside the ring lock.
type Sink func(level Level, component, code string)

type sampleKey struct{ component, code string }

// core is the shared state behind every Logger view: one ring, one
// sampler, one eviction count, however many sinks are scoped onto it.
type core struct {
	clock telemetry.Clock

	mu      sync.Mutex
	ring    []Record
	start   int // index of the oldest record
	n       int // live records in the ring
	seq     uint64
	evicted uint64

	every      int // keep 1 in every per (component, code); <=1 keeps all
	seed       int64
	counts     map[sampleKey]uint64
	sampledOut uint64

	evictedC *telemetry.Counter // telemetry.log.evicted; nil until SetMetrics
	sampledC *telemetry.Counter // telemetry.log.sampled_out
}

// Logger is a view onto a shared record ring: Event appends, Records
// queries. The zero-cost disabled state is a nil *Logger — every method
// is nil-safe. Views split with WithSink share the ring and differ only
// in the counter sink their records feed.
type Logger struct {
	c    *core
	sink Sink
}

// DefaultCapacity bounds the ring when New is given a non-positive
// capacity.
const DefaultCapacity = 4096

// New creates a logger on the injected clock with a ring of the given
// capacity (DefaultCapacity if <= 0).
func New(clock telemetry.Clock, capacity int) *Logger {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Logger{c: &core{
		clock:  clock,
		ring:   make([]Record, 0, capacity),
		counts: make(map[sampleKey]uint64),
	}}
}

// SetMetrics registers the ring's self-accounting counters on reg:
// "telemetry.log.evicted" and "telemetry.log.sampled_out". A nil reg
// detaches them.
func (lg *Logger) SetMetrics(reg *telemetry.Registry) {
	if lg == nil {
		return
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	lg.c.evictedC, lg.c.sampledC = nil, nil
	if reg != nil {
		lg.c.evictedC = reg.Counter("telemetry.log.evicted")
		lg.c.sampledC = reg.Counter("telemetry.log.sampled_out")
	}
}

// SetSampling enables per-(component,code) rate sampling below Warn:
// 1 in every records is kept, with a phase derived from the pair and the
// seed so two seeded runs sample identically but distinct codes are not
// phase-aligned. every <= 1 disables sampling.
func (lg *Logger) SetSampling(every int, seed int64) {
	if lg == nil {
		return
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	lg.c.every = every
	lg.c.seed = seed
}

// WithSink returns a view sharing this logger's ring whose kept records
// additionally invoke sink. A nil receiver returns nil, so disabled
// loggers propagate through wiring unchanged.
func (lg *Logger) WithSink(sink Sink) *Logger {
	if lg == nil {
		return nil
	}
	return &Logger{c: lg.c, sink: sink}
}

// Event appends a record at the clock's current time. On a nil logger it
// is a no-op that performs no allocation (the variadic fields stay on
// the caller's stack).
func (lg *Logger) Event(level Level, component, code string, fields ...Field) {
	if lg == nil {
		return
	}
	lg.append(telemetry.TraceContext{}, level, component, code, fields)
}

// EventCtx appends a record carrying the active trace context, linking
// the record to the violation trace it belongs to. Nil-safe like Event.
func (lg *Logger) EventCtx(ctx telemetry.TraceContext, level Level, component, code string, fields ...Field) {
	if lg == nil {
		return
	}
	lg.append(ctx, level, component, code, fields)
}

func (lg *Logger) append(ctx telemetry.TraceContext, level Level, component, code string, fields []Field) {
	c := lg.c
	at := c.clock()
	c.mu.Lock()
	if level < Warn && c.every > 1 {
		k := sampleKey{component, code}
		n := c.counts[k]
		c.counts[k] = n + 1
		if (n+samplePhase(component, code, c.seed, c.every))%uint64(c.every) != 0 {
			c.sampledOut++
			sc := c.sampledC
			c.mu.Unlock()
			if sc != nil {
				sc.Inc()
			}
			return
		}
	}
	c.seq++
	rec := Record{
		Seq:       c.seq,
		At:        at,
		Level:     level,
		Component: component,
		Code:      code,
		Trace:     ctx.TraceID,
		Span:      ctx.Span,
		Fields:    append([]Field(nil), fields...),
	}
	var ec *telemetry.Counter
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, rec)
		c.n++
	} else {
		// Ring full: overwrite the oldest, mirroring the tracer's
		// retention discipline.
		c.ring[c.start] = rec
		c.start = (c.start + 1) % len(c.ring)
		c.evicted++
		ec = c.evictedC
	}
	sink := lg.sink
	c.mu.Unlock()
	if ec != nil {
		ec.Inc()
	}
	if sink != nil {
		sink(level, component, code)
	}
}

// samplePhase spreads distinct (component, code) pairs across the
// sampling window so their kept records do not phase-align, while
// keeping the offset a pure function of the pair and the seed.
func samplePhase(component, code string, seed int64, every int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, component)
	h.Write([]byte{0})
	io.WriteString(h, code)
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64() % uint64(every)
}

// Query filters a Records or WriteNDJSON read. The zero value matches
// everything.
type Query struct {
	MinLevel  Level         // keep records at this level or above
	Component string        // keep only this component ("" = all)
	Since     time.Duration // keep records at or after this clock time
	Limit     int           // keep only the most recent N (<=0 = all)
}

func (q Query) match(r *Record) bool {
	return r.Level >= q.MinLevel &&
		(q.Component == "" || r.Component == q.Component) &&
		r.At >= q.Since
}

// Records returns matching records oldest-first, deep-copied so callers
// never alias the ring. With a Limit, the most recent matches win.
func (lg *Logger) Records(q Query) []Record {
	if lg == nil {
		return nil
	}
	c := lg.c
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for i := 0; i < c.n; i++ {
		r := &c.ring[(c.start+i)%len(c.ring)]
		if !q.match(r) {
			continue
		}
		cp := *r
		cp.Fields = append([]Field(nil), r.Fields...)
		out = append(out, cp)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Len returns the number of records currently in the ring.
func (lg *Logger) Len() int {
	if lg == nil {
		return 0
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	return lg.c.n
}

// Seq returns the last sequence number assigned (0 before any record).
func (lg *Logger) Seq() uint64 {
	if lg == nil {
		return 0
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	return lg.c.seq
}

// Evicted returns how many records the ring has evicted.
func (lg *Logger) Evicted() uint64 {
	if lg == nil {
		return 0
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	return lg.c.evicted
}

// SampledOut returns how many sub-Warn records sampling discarded.
func (lg *Logger) SampledOut() uint64 {
	if lg == nil {
		return 0
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	return lg.c.sampledOut
}

// WriteNDJSON writes matching records as newline-delimited JSON, one
// record per line, oldest first — the qosd -report artifact format.
func (lg *Logger) WriteNDJSON(w io.Writer, q Query) error {
	var buf []byte
	for _, r := range lg.Records(q) {
		buf = r.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// CounterName is the federated error-class counter name for a kept
// record's classification: "log.<component>.<level>". Summing these at
// the region tier answers "which domain is erroring" without any
// per-host state.
func CounterName(level Level, component string) string {
	var b strings.Builder
	b.Grow(len("log.") + len(component) + 1 + len("error"))
	b.WriteString("log.")
	b.WriteString(component)
	b.WriteByte('.')
	b.WriteString(level.String())
	return b.String()
}

// SummarySink builds a Sink feeding "log.<component>.<level>" counters
// into a telemetry.Summary, the unit that federates up the management
// hierarchy on the existing msg.TelemetrySummary path.
func SummarySink(sum *telemetry.Summary) Sink {
	return func(level Level, component, _ string) {
		sum.AddCounter(CounterName(level, component), 1)
	}
}

// String renders the logger state for debugging.
func (lg *Logger) String() string {
	if lg == nil {
		return "eventlog(nil)"
	}
	lg.c.mu.Lock()
	defer lg.c.mu.Unlock()
	return fmt.Sprintf("eventlog(n=%d seq=%d evicted=%d)", lg.c.n, lg.c.seq, lg.c.evicted)
}
