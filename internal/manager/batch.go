package manager

import (
	"sort"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// AlarmCoalescer batches a tier's upward alarm traffic: instead of
// forwarding every alarm to the parent tier point-to-point, alarms are
// merged per (subject, policy, suspect) key over a flush window on the
// injected clock and shipped as one msg.AlarmBatch, together with
// summary aggregates (e.g. "domain_saturation") the parent tier keeps
// instead of per-host state.
//
// Two escape hatches keep the semantics honest:
//
//   - a zero window disables batching entirely — Add forwards each alarm
//     as a plain msg.Alarm, byte-identical to the unbatched protocol (the
//     flat topology's degenerate case);
//   - an alarm at or above EscalationSeverity flushes the buffer
//     immediately, so a window never delays a severe fault by more than
//     the transport latency.
//
// The coalescer is driven by the single-threaded simulation loop (or a
// serialized live dispatcher) like the managers that own it; it is not
// internally locked.
type AlarmCoalescer struct {
	tier   string // emitting tier name stamped on batches ("host", "domain")
	addr   string // owning manager's address (batch envelope From)
	parent string // destination one tier up
	send   Send

	window  time.Duration
	after   func(time.Duration, func()) // injected timer (sim After or time.AfterFunc)
	onTimer func()                      // c.timerFlush, bound once so arming allocates nothing

	// Summarize, when set, is invoked at flush time to attach aggregate
	// facts to the outgoing batch (the per-tier summary that replaces
	// per-host floods at the parent).
	Summarize func() map[string]float64

	order   []string // arrival order of keys, for deterministic batch layout
	entries map[string]*msg.BatchedAlarm
	armed   bool

	// Statistics.
	Batches   uint64 // batches flushed
	Added     uint64 // alarms accepted into the coalescer
	Coalesced uint64 // alarms merged into an existing entry
	Forwarded uint64 // per-alarm passthroughs (zero-window mode)

	// Metric handles; nil until SetTelemetry.
	flushes  *telemetry.Counter
	batched  *telemetry.Counter
	escFlush *telemetry.Counter

	// evlog, when set, records flush decisions (component "batch").
	evlog *eventlog.Logger
}

// EscalationSeverity is the alarm severity that flushes a coalescer's
// pending batch at once instead of waiting out the window.
const EscalationSeverity = 2

// NewAlarmCoalescer creates a coalescer that batches alarms from tier
// toward parent over the given window. after schedules the flush timer
// on the owning runtime's clock; a zero window makes Add a per-alarm
// passthrough and never schedules anything.
func NewAlarmCoalescer(tier, addr, parent string, send Send,
	window time.Duration, after func(time.Duration, func())) *AlarmCoalescer {
	c := &AlarmCoalescer{
		tier:    tier,
		addr:    addr,
		parent:  parent,
		send:    send,
		window:  window,
		after:   after,
		entries: make(map[string]*msg.BatchedAlarm),
	}
	c.onTimer = c.timerFlush
	return c
}

// SetTelemetry attaches the coalescer to a metrics registry,
// registering its "batch.<tier>.*" counters. A nil reg detaches it.
func (c *AlarmCoalescer) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.flushes, c.batched, c.escFlush = nil, nil, nil
		return
	}
	c.flushes = reg.Counter("batch." + c.tier + ".flushes")
	c.batched = reg.Counter("batch." + c.tier + ".alarms")
	c.escFlush = reg.Counter("batch." + c.tier + ".escalation_flushes")
}

// SetEventLog attaches the structured event log flush decisions are
// recorded on (component "batch"). Nil detaches.
func (c *AlarmCoalescer) SetEventLog(lg *eventlog.Logger) { c.evlog = lg }

// Pending returns how many coalesced entries await the next flush.
func (c *AlarmCoalescer) Pending() int { return len(c.entries) }

func alarmKey(a msg.Alarm) string {
	return a.ID.Address() + "|" + a.Policy + "|" + a.Suspect
}

// Add accepts one alarm with its severity. With a zero window the alarm
// is forwarded to the parent unchanged (the unbatched wire protocol);
// otherwise it is merged into the current window's batch, which flushes
// when the window timer fires — or immediately, when severity reaches
// the escalation threshold.
func (c *AlarmCoalescer) Add(a msg.Alarm, severity int) error {
	return c.AddCtx(a, severity, telemetry.TraceContext{})
}

// AddCtx is Add with a trace context. Zero-window passthroughs carry it
// on the forwarded alarm so causal traces survive the degenerate case;
// batched alarms drop it (a batch aggregates many causes).
func (c *AlarmCoalescer) AddCtx(a msg.Alarm, severity int, tc telemetry.TraceContext) error {
	c.Added++
	if c.window <= 0 {
		c.Forwarded++
		return c.send(c.parent, msg.Message{From: c.addr, Trace: tc, Body: a})
	}
	key := alarmKey(a)
	if e, ok := c.entries[key]; ok {
		c.Coalesced++
		e.Alarm = a // latest readings win
		e.Count++
		if severity > e.Severity {
			e.Severity = severity
		}
	} else {
		c.entries[key] = &msg.BatchedAlarm{Alarm: a, Count: 1, Severity: severity}
		c.order = append(c.order, key)
	}
	if severity >= EscalationSeverity {
		c.escFlush.Inc()
		c.evlog.EventCtx(tc, eventlog.Warn, "batch", "escalation_flush",
			eventlog.Str("tier", c.tier), eventlog.Str("subject", a.ID.Address()),
			eventlog.Int("severity", severity), eventlog.Int("pending", len(c.entries)))
		return c.Flush()
	}
	if !c.armed {
		c.armed = true
		c.after(c.window, c.onTimer)
	}
	return nil
}

// timerFlush is the window timer's callback. An escalation may already
// have drained the buffer; the timer then just disarms.
func (c *AlarmCoalescer) timerFlush() {
	c.armed = false
	if len(c.entries) > 0 {
		_ = c.Flush()
	}
}

// Flush ships the pending entries (in arrival order) and the current
// summary as one AlarmBatch. A flush with nothing pending and no
// summary sends nothing.
func (c *AlarmCoalescer) Flush() error {
	if len(c.entries) == 0 && c.Summarize == nil {
		return nil
	}
	b := msg.AlarmBatch{Tier: c.tier}
	if len(c.entries) > 0 {
		b.Alarms = make([]msg.BatchedAlarm, 0, len(c.entries))
		for _, key := range c.order {
			b.Alarms = append(b.Alarms, *c.entries[key])
		}
		c.order = c.order[:0]
		c.entries = make(map[string]*msg.BatchedAlarm)
	}
	if c.Summarize != nil {
		b.Summary = c.Summarize()
	}
	if len(b.Alarms) == 0 && len(b.Summary) == 0 {
		return nil
	}
	c.Batches++
	c.flushes.Inc()
	for _, e := range b.Alarms {
		c.batched.Add(uint64(e.Count))
	}
	c.evlog.Event(eventlog.Debug, "batch", "flush",
		eventlog.Str("tier", c.tier), eventlog.Int("alarms", len(b.Alarms)),
		eventlog.Int("summary", len(b.Summary)))
	return c.send(c.parent, msg.Message{From: c.addr, Body: b})
}

// sortedKeys is the shared helper for deterministic map sweeps: the keys
// of m appended to buf (nil, or a stack buffer on a hot path), sorted.
func sortedKeys[V any](m map[string]V, buf []string) []string {
	for k := range m {
		buf = append(buf, k)
	}
	sort.Strings(buf)
	return buf
}
