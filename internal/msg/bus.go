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
//
// Messages in flight wait in one FIFO per delay class. Every message of
// a class is delayed by the same amount, so the class's delivery events
// fire in send order and each pops its class's head: a send schedules a
// func bound once in NewBus and captures nothing.
type Bus struct {
	sim       *sim.Simulator
	endpoints map[string]*busEndpoint

	localDelay  time.Duration
	remoteDelay time.Duration
	local       busQueue // in flight between addresses on one host
	remote      busQueue

	deliverLocal, deliverRemote func() // pop local / remote; bound once

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

// inFlight is one message on its way: the endpoint is the one addressed
// at send time, its handler the one bound there at delivery.
type inFlight struct {
	to *busEndpoint
	m  Message
}

// busQueue is a FIFO ring of messages in flight.
type busQueue struct {
	ring []inFlight // power-of-two length; n entries from head
	head int
	n    int
}

func (q *busQueue) push(to *busEndpoint, m Message) {
	if q.n == len(q.ring) {
		ring := make([]inFlight, max(64, 2*len(q.ring)))
		k := copy(ring, q.ring[q.head:])
		copy(ring[k:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = inFlight{to, m}
	q.n++
}

// pop removes the oldest message, clearing its slot so the ring keeps
// no delivered message alive.
func (q *busQueue) pop() inFlight {
	f := q.ring[q.head]
	q.ring[q.head] = inFlight{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return f
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
	b := &Bus{
		sim:         s,
		endpoints:   make(map[string]*busEndpoint),
		localDelay:  localDelay,
		remoteDelay: remoteDelay,
	}
	b.deliverLocal = func() { b.deliver(&b.local) }
	b.deliverRemote = func() { b.deliver(&b.remote) }
	return b
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
		b.metrics.bytes.Add(frameSize(&m, false))
	}
	if from := b.endpoints[m.From]; from != nil && from.host != "" && from.host == to.host {
		b.local.push(to, m)
		b.sim.After(b.localDelay, b.deliverLocal)
	} else {
		b.remote.push(to, m)
		b.sim.After(b.remoteDelay, b.deliverRemote)
	}
	return nil
}

// deliver hands the oldest message in flight on q to the handler bound
// at its address now, or drops it when none is.
func (b *Bus) deliver(q *busQueue) {
	f := q.pop()
	h := f.to.h
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
	h(f.m)
}
