package msg

import (
	"fmt"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// typeTags lists every message body tag, for pre-registering per-type
// counters at attach time (keeps the metric name set stable between runs
// regardless of which types actually flow).
var typeTags = []string{"register", "policyset", "violation", "query", "report", "alarm", "directive", "ack"}

// BusHandler consumes messages delivered to an address.
type BusHandler = func(Message)

// Bus is the in-simulation management-plane transport. Each management
// component (coordinator, policy agent, host manager, domain manager)
// binds an address; Send delivers after the configured latency for the
// address pair. It models the prototype's message queues (same host) and
// management sockets (cross host).
type Bus struct {
	sim       *sim.Simulator
	endpoints map[string]*busEndpoint

	localDelay  time.Duration
	remoteDelay time.Duration

	Sent           uint64
	Delivered      uint64
	Dropped        uint64 // destination not bound at delivery time
	DroppedInvalid uint64 // decoded but failed Validate

	metrics *busMetrics
}

// busEndpoint is one address of the bus. Unbind clears it but keeps it
// in place, so a message in flight to the address reaches whatever
// handler is bound there when it arrives.
type busEndpoint struct {
	h    BusHandler // nil while unbound
	host string     // for latency selection; "" while unbound
}

// busMetrics holds the bus transport's pre-resolved metric handles.
type busMetrics struct {
	sent      *telemetry.Counter
	delivered *telemetry.Counter
	dropped   *telemetry.Counter
	invalid   *telemetry.Counter
	bytes     *telemetry.Counter
	byType    map[string]*telemetry.Counter
}

// NewBus creates a bus with the given IPC latencies: localDelay applies
// between addresses on the same host, remoteDelay otherwise.
func NewBus(s *sim.Simulator, localDelay, remoteDelay time.Duration) *Bus {
	return &Bus{
		sim:         s,
		endpoints:   make(map[string]*busEndpoint),
		localDelay:  localDelay,
		remoteDelay: remoteDelay,
	}
}

// SetMetrics attaches the bus to a metrics registry: counters for
// messages sent/delivered/dropped, wire bytes (the Bus delivers Message
// values in-process, so the wire exists only as this modeled cost), and
// per-type message counts under "msg.bus.*".
func (b *Bus) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		b.metrics = nil
		return
	}
	m := &busMetrics{
		sent:      reg.Counter("msg.bus.sent"),
		delivered: reg.Counter("msg.bus.delivered"),
		dropped:   reg.Counter("msg.bus.dropped"),
		invalid:   reg.Counter("msg.bus.dropped_invalid"),
		bytes:     reg.Counter("msg.bus.bytes"),
		byType:    make(map[string]*telemetry.Counter, len(typeTags)),
	}
	for _, tag := range typeTags {
		m.byType[tag] = reg.Counter("msg.bus.sent." + tag)
	}
	b.metrics = m
}

// Bind attaches a handler to an address located on host. Rebinding an
// address replaces the handler (used when a manager restarts).
func (b *Bus) Bind(addr, host string, h BusHandler) {
	if ep := b.endpoints[addr]; ep != nil {
		ep.h, ep.host = h, host
		return
	}
	b.endpoints[addr] = &busEndpoint{h: h, host: host}
}

// Unbind removes an address's handler; in-flight messages to it are
// dropped at delivery time unless the address is bound again first.
func (b *Bus) Unbind(addr string) {
	if ep := b.endpoints[addr]; ep != nil {
		*ep = busEndpoint{}
	}
}

// Bound reports whether an address has a handler.
func (b *Bus) Bound(addr string) bool { ep := b.endpoints[addr]; return ep != nil && ep.h != nil }

// Send delivers m to addr after the transport latency. It returns an
// error if the destination is not currently bound (so callers can detect
// dead managers), but a destination that unbinds while the message is in
// flight just drops it.
func (b *Bus) Send(addr string, m Message) error {
	to := b.endpoints[addr]
	if to == nil || to.h == nil {
		return fmt.Errorf("msg: no handler bound at %q", addr)
	}
	if err := Validate(m); err != nil {
		b.DroppedInvalid++
		if b.metrics != nil {
			b.metrics.invalid.Inc()
		}
		return err
	}
	b.Sent++
	if b.metrics != nil {
		b.metrics.sent.Inc()
		if tag, err := typeTag(m.Body); err == nil {
			if c, ok := b.metrics.byType[tag]; ok {
				c.Inc()
			}
		}
		// Byte accounting encodes without the trace context: tracing is
		// out-of-band metadata, so traced and untraced runs of one seed
		// count the same msg.bus.bytes.
		untraced := m
		untraced.Trace = telemetry.TraceContext{}
		b.metrics.bytes.Add(frameLen(untraced))
	}
	delay := b.remoteDelay
	if from := b.endpoints[m.From]; from != nil && from.host != "" && from.host == to.host {
		delay = b.localDelay
	}
	b.sim.After(delay, func() {
		h := to.h
		if h == nil {
			b.Dropped++
			if b.metrics != nil {
				b.metrics.dropped.Inc()
			}
			return
		}
		b.Delivered++
		if b.metrics != nil {
			b.metrics.delivered.Inc()
		}
		h(m)
	})
	return nil
}
