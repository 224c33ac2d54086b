// Package netsim simulates the network between hosts: store-and-forward
// switches with finite service rates and drop-tail queues, static routes,
// and cross-traffic generators used to inject the "unexpected load on a
// network switch" faults whose localization the paper's QoS Domain Manager
// is responsible for.
package netsim

import (
	"fmt"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// Packet is one unit of traffic in flight.
type Packet struct {
	Src, Dst string
	Size     int // bytes
	Payload  any
	SentAt   sim.Time
}

// Handler consumes packets delivered to a node.
type Handler func(Packet)

// node is a delivery endpoint (usually a simulated host).
type node struct {
	name    string
	handler Handler
}

// Switch is a store-and-forward element with a finite service rate and a
// drop-tail queue measured in bytes.
type Switch struct {
	name string
	rate float64 // bytes per second of service capacity
	qcap int     // queue capacity in bytes

	busyUntil sim.Time

	// Statistics (cumulative; observers take deltas).
	Arrivals    uint64
	Drops       uint64
	BytesServed uint64
}

// QueuedBytes returns the backlog awaiting service at virtual time now.
func (w *Switch) QueuedBytes(now sim.Time) int {
	if w.busyUntil <= now {
		return 0
	}
	return int(float64((w.busyUntil - now).Duration()) / float64(time.Second) * w.rate)
}

// Route is an ordered list of switches between two endpoints plus the total
// propagation delay of its links.
type Route struct {
	Hops []*Switch
	Prop time.Duration
}

// Network owns nodes, switches and routes.
type Network struct {
	sim      *sim.Simulator
	nodes    map[string]*node
	switches map[string]*Switch
	routes   map[[2]string]*Route

	Delivered uint64
	Lost      uint64

	reg *telemetry.Registry
}

func (n *Network) registerSwitchMetrics(w *Switch) {
	prefix := "netsim." + w.name + "."
	n.reg.GaugeFunc(prefix+"queued_bytes", func() float64 { return float64(w.QueuedBytes(n.sim.Now())) })
	n.reg.GaugeFunc(prefix+"arrivals", func() float64 { return float64(w.Arrivals) })
	n.reg.GaugeFunc(prefix+"drops", func() float64 { return float64(w.Drops) })
	n.reg.GaugeFunc(prefix+"bytes_served", func() float64 { return float64(w.BytesServed) })
}

// New creates an empty network on the simulator. kit's registry gets
// pull gauges for delivery/loss totals and, per switch as it is added,
// instantaneous queue depth plus cumulative arrivals/drops/served bytes
// ("netsim.<switch>.*"); the tracer and event log are unused.
func New(s *sim.Simulator, kit obs.Kit) *Network {
	n := &Network{
		sim:      s,
		nodes:    make(map[string]*node),
		switches: make(map[string]*Switch),
		routes:   make(map[[2]string]*Route),
		reg:      kit.Metrics,
	}
	if n.reg != nil {
		n.reg.GaugeFunc("netsim.delivered", func() float64 { return float64(n.Delivered) })
		n.reg.GaugeFunc("netsim.lost", func() float64 { return float64(n.Lost) })
	}
	return n
}

// AddNode registers a delivery endpoint. The handler runs inside a
// simulation event when a packet arrives.
func (n *Network) AddNode(name string, h Handler) {
	if _, dup := n.nodes[name]; dup {
		panic("netsim: duplicate node " + name)
	}
	n.nodes[name] = &node{name: name, handler: h}
}

// SetHandler replaces a node's delivery handler.
func (n *Network) SetHandler(name string, h Handler) {
	nd, ok := n.nodes[name]
	if !ok {
		panic("netsim: unknown node " + name)
	}
	nd.handler = h
}

// AddSwitch creates a switch serving rate bytes/second with a queue of
// qcap bytes.
func (n *Network) AddSwitch(name string, rate float64, qcap int) *Switch {
	if _, dup := n.switches[name]; dup {
		panic("netsim: duplicate switch " + name)
	}
	w := &Switch{name: name, rate: rate, qcap: qcap}
	n.switches[name] = w
	if n.reg != nil {
		n.registerSwitchMetrics(w)
	}
	return w
}

// SetRoute installs the path used by packets from src to dst. Routes are
// unidirectional; install both directions for duplex traffic.
func (n *Network) SetRoute(src, dst string, prop time.Duration, hops ...*Switch) {
	if _, ok := n.nodes[src]; !ok {
		panic("netsim: route from unknown node " + src)
	}
	if _, ok := n.nodes[dst]; !ok {
		panic("netsim: route to unknown node " + dst)
	}
	n.routes[[2]string{src, dst}] = &Route{Hops: hops, Prop: prop}
}

// Send injects a packet from src to dst. It returns an error if no route
// exists; queue overflow along the path silently drops the packet (like a
// real datagram network) and is visible in switch statistics.
func (n *Network) Send(src, dst string, size int, payload any) error {
	r := n.routes[[2]string{src, dst}]
	if r == nil {
		return fmt.Errorf("netsim: no route %s -> %s", src, dst)
	}
	pkt := Packet{Src: src, Dst: dst, Size: size, Payload: payload, SentAt: n.sim.Now()}
	// Propagation is split evenly across the hops plus final delivery leg.
	legs := len(r.Hops) + 1
	legDelay := r.Prop / time.Duration(legs)
	n.sim.After(legDelay, func() { n.arriveAtHop(pkt, r, 0, legDelay) })
	return nil
}

// arriveAtHop handles the packet's arrival at r.Hops[i] (or final delivery
// when i == len(r.Hops)).
func (n *Network) arriveAtHop(pkt Packet, r *Route, i int, legDelay time.Duration) {
	if i == len(r.Hops) {
		n.Delivered++
		if nd := n.nodes[pkt.Dst]; nd != nil && nd.handler != nil {
			nd.handler(pkt)
		}
		return
	}
	w := r.Hops[i]
	now := n.sim.Now()
	w.Arrivals++
	if w.QueuedBytes(now)+pkt.Size > w.qcap {
		w.Drops++
		n.Lost++
		return
	}
	service := time.Duration(float64(pkt.Size) / w.rate * float64(time.Second))
	start := w.busyUntil
	if start < now {
		start = now
	}
	departure := start + sim.Time(service)
	w.busyUntil = departure
	w.BytesServed += uint64(pkt.Size)
	n.sim.Schedule(departure+sim.Time(legDelay), func() {
		n.arriveAtHop(pkt, r, i+1, legDelay)
	})
}

// StartCrossTraffic sends a packet of size bytes from src to dst every
// interval for the rest of the run: constant-bit-rate background load
// that congests the switches on the route, for fault-injection
// experiments. src and dst must be registered nodes with a route between
// them.
func (n *Network) StartCrossTraffic(src, dst string, size int, interval time.Duration) {
	if n.routes[[2]string{src, dst}] == nil {
		panic(fmt.Sprintf("netsim: cross traffic with no route %s -> %s", src, dst))
	}
	n.sim.Every(interval, func() {
		// Route presence was checked at start; Send cannot fail here.
		_ = n.Send(src, dst, size, nil)
	})
}
