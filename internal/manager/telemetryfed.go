package manager

import (
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

// DefaultTelemetryWindow is the flush window federated telemetry tiers
// use when the caller does not choose one: hosts (and domains) ship one
// summary every window.
const DefaultTelemetryWindow = 10 * time.Second

// SummaryExporter is the host-side half of the federated telemetry
// plane: a per-host telemetry.Summary that observers fill between
// flushes, shipped to the parent tier as one msg.TelemetrySummary per
// window and reset. Like the AlarmCoalescer it is driven by the owning
// runtime's single-threaded loop via the injected timer; unlike the
// coalescer it re-arms unconditionally (telemetry is periodic, not
// bursty). It deliberately has no registry attachment — at fleet scale
// there is one exporter per host, and per-host counters are exactly the
// state federation exists to avoid.
type SummaryExporter struct {
	tier   string
	addr   string // owning component's address (From and Source)
	parent string
	send   Send

	window  time.Duration
	after   func(time.Duration, func())
	onTimer func() // e.tick, bound once so re-arming allocates nothing

	sum *telemetry.Summary
	seq uint64

	// Statistics.
	Exported uint64 // summaries shipped
	Skipped  uint64 // windows with nothing to ship
}

// NewSummaryExporter creates an exporter shipping addr's telemetry to
// parent every window (DefaultTelemetryWindow when <= 0).
func NewSummaryExporter(tier, addr, parent string, send Send,
	window time.Duration, after func(time.Duration, func())) *SummaryExporter {
	if window <= 0 {
		window = DefaultTelemetryWindow
	}
	e := &SummaryExporter{
		tier: tier, addr: addr, parent: parent, send: send,
		window: window, after: after, sum: telemetry.NewSummary(),
	}
	e.onTimer = e.tick
	return e
}

// Summary returns the accumulator observers record into. Handles
// resolved from it (Sketch) stay valid across flushes.
func (e *SummaryExporter) Summary() *telemetry.Summary { return e.sum }

// Start arms the periodic flush timer. Call once, after the owning
// component is wired to its transport.
func (e *SummaryExporter) Start() { e.after(e.window, e.onTimer) }

func (e *SummaryExporter) tick() {
	_ = e.FlushNow()
	e.after(e.window, e.onTimer)
}

// FlushNow closes the current window immediately: an empty window ships
// nothing (and counts as skipped), anything else ships one summary.
func (e *SummaryExporter) FlushNow() error {
	counters, maxima, sketches, ok := e.sum.Drain()
	if !ok {
		e.Skipped++
		return nil
	}
	e.seq++
	e.Exported++
	return e.send(e.parent, msg.Message{From: e.addr, Body: msg.TelemetrySummary{
		Tier: e.tier, Source: e.addr, Seq: e.seq, Hosts: 1,
		Counters: counters, Maxima: maxima, Sketches: sketches,
	}})
}

// childAgg is one direct child's cumulative aggregate, kept only by
// terminal aggregators, which break the fleet down per child.
type childAgg struct {
	sum       *telemetry.Summary
	hosts     uint64 // latest Hosts figure the child reported
	summaries uint64
}

// SummaryAggregator is the mid- and top-tier half of the federated
// telemetry plane. A domain runs one with a parent: inbound host
// summaries merge into the current window's aggregate, which ships
// upward as one domain-tier summary per window — so the region's
// telemetry fan-in is the domain count, not the host count. The region
// runs a terminal one (parent ""): everything merges into a cumulative
// fleet summary, broken down per direct child, and is never re-shipped.
// All merges are exact (sketch bucket addition, counter addition,
// max-merge), so the fleet aggregate is independent of arrival order and
// of how hosts are spread across domains.
type SummaryAggregator struct {
	tier   string
	addr   string
	parent string // "" = terminal: aggregate only, never forward
	send   Send

	window  time.Duration
	after   func(time.Duration, func())
	onTimer func() // g.timerFlush, bound once so arming allocates nothing
	armed   bool

	win      *telemetry.Summary // current window (forwarding aggregators)
	total    *telemetry.Summary // cumulative since start
	winHosts map[string]uint64  // source -> hosts covered, this window
	seq      uint64

	children map[string]*childAgg // terminal aggregators only

	// Statistics.
	Ingested  uint64            // summaries absorbed
	Flushes   uint64            // window flushes shipped upward
	hostsSeen map[string]uint64 // source -> latest hosts (terminal tally)

	// Metric handles; nil until SetTelemetry.
	cSummaries *telemetry.Counter
	cFlushes   *telemetry.Counter
}

// NewSummaryAggregator creates an aggregator for tier at addr. With a
// parent it re-exports each window's merged aggregate upward; with
// parent "" it is terminal: it only accumulates, keeping one cumulative
// aggregate per direct child (the region keeps per-domain breakdowns;
// domains keep nothing per host — that is the point of federation).
// window defaults to DefaultTelemetryWindow when <= 0.
func NewSummaryAggregator(tier, addr, parent string, send Send,
	window time.Duration, after func(time.Duration, func())) *SummaryAggregator {
	if window <= 0 {
		window = DefaultTelemetryWindow
	}
	g := &SummaryAggregator{
		tier: tier, addr: addr, parent: parent, send: send,
		window: window, after: after,
		win: telemetry.NewSummary(), total: telemetry.NewSummary(),
		winHosts:  make(map[string]uint64),
		hostsSeen: make(map[string]uint64),
	}
	g.onTimer = g.timerFlush
	if parent == "" {
		g.children = make(map[string]*childAgg)
	}
	return g
}

// SetTelemetry attaches aggregate flow counters
// (telemetry.fed.<tier>.summaries / .flushes). Aggregators of the same
// tier share the names deliberately: the counters measure the tier's
// total federation traffic, not one aggregator's.
func (g *SummaryAggregator) SetTelemetry(reg *telemetry.Registry) {
	g.cSummaries = reg.Counter("telemetry.fed." + g.tier + ".summaries")
	g.cFlushes = reg.Counter("telemetry.fed." + g.tier + ".flushes")
}

// Ingest absorbs one inbound summary. Forwarding aggregators also merge
// it into the current window and arm the flush timer, coalescer-style.
func (g *SummaryAggregator) Ingest(ts msg.TelemetrySummary) {
	g.Ingested++
	g.cSummaries.Inc()
	hosts := ts.Hosts
	if hosts == 0 {
		hosts = 1
	}
	g.hostsSeen[ts.Source] = hosts
	g.total.Absorb(ts.Counters, ts.Maxima, ts.Sketches)
	if g.parent == "" {
		c := g.child(ts.Source)
		c.sum.Absorb(ts.Counters, ts.Maxima, ts.Sketches)
		c.hosts = hosts
		c.summaries++
		return
	}
	g.win.Absorb(ts.Counters, ts.Maxima, ts.Sketches)
	g.winHosts[ts.Source] = hosts
	if !g.armed {
		g.armed = true
		g.after(g.window, g.onTimer)
	}
}

// AddLocal merges one locally produced counter increment into the
// aggregator's own state — the path a domain tier's event-log counters
// ride so they federate upward inside the existing window flush instead
// of as extra messages. Forwarding aggregators also fold the increment
// into the current window and arm the flush timer; the local tier does
// not inflate the window's host coverage.
func (g *SummaryAggregator) AddLocal(name string, delta float64) {
	g.total.AddCounter(name, delta)
	if g.parent == "" {
		g.child(g.addr).sum.AddCounter(name, delta)
		return
	}
	g.win.AddCounter(name, delta)
	if !g.armed {
		g.armed = true
		g.after(g.window, g.onTimer)
	}
}

// child returns the cumulative aggregate of one direct child, creating it.
func (g *SummaryAggregator) child(source string) *childAgg {
	c, ok := g.children[source]
	if !ok {
		c = &childAgg{sum: telemetry.NewSummary()}
		g.children[source] = c
	}
	return c
}

// timerFlush ships the window's merged aggregate one tier up as a single
// summary covering every host whose telemetry it merged; an empty window
// ships nothing.
func (g *SummaryAggregator) timerFlush() {
	g.armed = false
	counters, maxima, sketches, ok := g.win.Drain()
	if !ok {
		return
	}
	var hosts uint64
	for _, n := range g.winHosts {
		hosts += n
	}
	clear(g.winHosts)
	g.seq++
	g.Flushes++
	g.cFlushes.Inc()
	// A timer callback has no caller to hand a send error to.
	_ = g.send(g.parent, msg.Message{From: g.addr, Body: msg.TelemetrySummary{
		Tier: g.tier, Source: g.addr, Seq: g.seq, Hosts: hosts,
		Counters: counters, Maxima: maxima, Sketches: sketches,
	}})
}

// Hosts returns how many hosts the aggregator's cumulative state
// covers (the sum of each distinct source's latest coverage figure).
func (g *SummaryAggregator) Hosts() uint64 {
	var n uint64
	for _, h := range g.hostsSeen {
		n += h
	}
	return n
}

// Total returns the cumulative aggregate.
func (g *SummaryAggregator) Total() *telemetry.Summary { return g.total }

// FleetView renders the aggregator's cumulative state as the federated
// observability document: the merged fleet summary plus (for terminal
// aggregators) one name-sorted entry per direct child.
func (g *SummaryAggregator) FleetView() telemetry.FederatedView {
	v := telemetry.FederatedView{
		Tier:      g.tier,
		Hosts:     g.Hosts(),
		Summaries: g.Ingested,
		Fleet:     g.total.View(),
	}
	v.Fleet.Hosts = v.Hosts
	for _, name := range sortedKeys(g.children, nil) {
		c := g.children[name]
		cv := telemetry.ChildView{
			Name: name, Hosts: c.hosts, Summaries: c.summaries,
			Summary: c.sum.View(),
		}
		cv.Summary.Hosts = c.hosts
		v.Children = append(v.Children, cv)
	}
	return v
}
