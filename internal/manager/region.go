package manager

import (
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// domainState is everything the region keeps about one registered
// domain: its address and the aggregates from its alarm batches. The
// region holds state per DOMAIN, never per host — per-host memory at the
// region tier would defeat the hierarchy.
type domainState struct {
	addr       string
	saturation float64 // latest domain_saturation summary
	probing    bool    // a localization query is already in flight
}

// rmMetrics holds the region manager's pre-resolved metric handles.
type rmMetrics struct {
	batches      *telemetry.Counter
	alarms       *telemetry.Counter
	probes       *telemetry.Counter
	rebalances   *telemetry.Counter
	policyRelays *telemetry.Counter
	domains      *telemetry.Gauge
}

// probeKeys are the statistics a region probe asks a domain for.
var probeKeys = []string{"cpu_load", "mem_usage"}

// RegionConfig is what a region manager is configured with beyond its
// address and transport.
type RegionConfig struct {
	// Liveness arms domain eviction and probe timeouts, exactly as the
	// lower tiers arm theirs.
	Liveness
	// SummarySink receives inbound domain telemetry summaries (typically a
	// terminal SummaryAggregator's Ingest); without one they are dropped.
	SummarySink func(msg.TelemetrySummary)
}

// RegionManager is the third tier of the control plane: domain managers
// register with it (the same registration/heartbeat protocol hosts
// speak to a domain), their coalesced alarm batches aggregate into
// per-domain saturation state, and localization queries fan out DOWN
// only to the domains whose aggregates implicate them. Corrective
// rebalance directives travel back down the same edge.
type RegionManager struct {
	node

	domains roster[string, domainState] // by domain name
	byAddr  map[string]string           // domain manager address -> name
	probes  requests[string]            // "r" refs -> probed domain's name

	// SaturationThreshold gates downward probes: a batch whose
	// domain_saturation reaches it implicates the domain (default 0.02).
	SaturationThreshold float64
	// LoadThreshold gates rebalance directives: a probed domain whose
	// aggregated cpu_load_max reaches it gets a shed_load directive
	// (default 2.0, matching the domain rule set's CPU threshold).
	LoadThreshold float64

	metrics rmMetrics

	// Statistics.
	Batches        uint64
	BatchedAlarms  uint64
	Probes         uint64
	ProbeRetries   uint64
	ProbeTimeouts  uint64
	Rebalances     uint64
	DomainsEvicted uint64
	// PolicyDeltasRelayed counts policy deltas forwarded down to
	// domain managers (fan-out included: one delta to three domains
	// counts three).
	PolicyDeltasRelayed uint64
}

// NewRegionManager creates a region manager bound to addr.
func NewRegionManager(addr string, send Send, cfg RegionConfig) *RegionManager {
	rm := &RegionManager{
		node: node{addr: addr, send: send, component: "regionmanager",
			live: cfg.Liveness, sink: cfg.SummarySink},
		byAddr:              make(map[string]string),
		probes:              requests[string]{},
		SaturationThreshold: 0.02,
		LoadThreshold:       2.0,
	}
	rm.domains = roster[string, domainState]{kind: "domain", timeout: cfg.Timeout, evicted: &rm.DomainsEvicted,
		bind: rm.bind,
		describe: func(name string, _ *domainState, silent time.Duration) []eventlog.Field {
			return []eventlog.Field{eventlog.Str("domain", name), eventlog.Num("silent_ns", float64(silent))}
		},
		onEvict: func(_ string, ds *domainState) {
			delete(rm.byAddr, ds.addr)
			rm.metrics.domains.Set(float64(rm.domains.len()))
		}}
	return rm
}

// Domains returns how many domain managers are registered.
func (rm *RegionManager) Domains() int { return rm.domains.len() }

// SetTelemetry attaches the region manager to a metrics registry and
// tracer under the "region." prefix.
func (rm *RegionManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	rm.tracer = tracer
	rm.metrics, rm.domains.metric = rmMetrics{}, nil
	if reg == nil {
		return
	}
	rm.metrics = rmMetrics{
		batches:      reg.Counter("region.batches"),
		alarms:       reg.Counter("region.alarms_batched"),
		probes:       reg.Counter("region.probes"),
		rebalances:   reg.Counter("region.rebalances"),
		policyRelays: reg.Counter("region.policy_deltas_relayed"),
		domains:      reg.Gauge("region.domains"),
	}
	rm.domains.metric = reg.Counter("region.domains_evicted")
}

// HandleMessage processes one inbound management message.
func (rm *RegionManager) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case msg.Register:
		registerChild(&rm.node, &rm.domains, body.ID, m.From)
	case msg.Heartbeat:
		heartbeatChild(&rm.node, &rm.domains, body, m.From)
	case msg.AlarmBatch:
		rm.handleBatch(body, m.From)
	case msg.Alarm:
		// An unbatched alarm from a domain running in the no-batching
		// degenerate mode folds into the same aggregates as a one-entry
		// batch.
		rm.handleBatch(msg.AlarmBatch{Tier: "domain",
			Alarms: []msg.BatchedAlarm{{Alarm: body, Count: 1, Severity: 1}}}, m.From)
	case msg.Report:
		rm.handleReport(body)
	case msg.TelemetrySummary:
		rm.summary(body)
	case msg.PolicyDelta:
		// The region adds no policy knowledge of its own — it is the
		// distribution edge of the hierarchy — so every registered domain
		// gets the delta, in registration order.
		addrs := make([]string, 0, rm.domains.len())
		for _, name := range rm.domains.order {
			addrs = append(addrs, rm.domains.get(name).addr)
		}
		n := rm.relay(m, addrs)
		rm.PolicyDeltasRelayed += n
		rm.metrics.policyRelays.Add(n)
	}
}

// bind points a (re-)registered domain at the address it registered
// from, keeping its aggregates and any probe in flight.
func (rm *RegionManager) bind(name string, ds *domainState, addr string) {
	if ds.addr != addr {
		delete(rm.byAddr, ds.addr)
		ds.addr = addr
		rm.byAddr[addr] = name
	}
	rm.metrics.domains.Set(float64(rm.domains.len()))
}

// handleBatch ingests one domain's coalesced alarm window: per-domain
// aggregates are updated, and a domain whose saturation crosses the
// threshold is probed — only that domain, never the whole fleet.
func (rm *RegionManager) handleBatch(b msg.AlarmBatch, from string) {
	name, ok := rm.byAddr[from]
	if !ok {
		return // unregistered sender
	}
	ds := rm.domains.contact(name, rm.now())
	rm.Batches++
	var n uint64
	for _, e := range b.Alarms {
		n += uint64(e.Count)
	}
	rm.BatchedAlarms += n
	if s, ok := b.Summary["domain_saturation"]; ok {
		ds.saturation = s
	}
	rm.metrics.batches.Inc()
	rm.metrics.alarms.Add(n)
	if ds.saturation >= rm.SaturationThreshold && !ds.probing {
		rm.probe(name, ds)
	}
}

// probe fans a localization query down to one implicated domain.
func (rm *RegionManager) probe(name string, ds *domainState) {
	ref := rm.newRef("r")
	ds.probing = true
	rm.probes.open(ref, name, rm.now())
	rm.Probes++
	rm.metrics.probes.Inc()
	if rm.tracer != nil {
		rm.tracer.EventCtxTier(telemetry.TraceContext{}, name, "region",
			"regionmanager", telemetry.StageLocate,
			"probe "+name+" (saturation over threshold)", TierRegion)
	}
	_ = rm.send(ds.addr, msg.Message{From: rm.addr, Body: msg.Query{
		From: rm.addr, Keys: probeKeys, Ref: ref}})
}

// handleReport closes a probe with the domain's aggregated statistics:
// a domain whose worst host is over the load threshold gets a rebalance
// directive, which the domain routes to that host.
func (rm *RegionManager) handleReport(r msg.Report) {
	name := rm.probes.get(r.Ref)
	if name == nil {
		return
	}
	delete(rm.probes, r.Ref)
	ds := rm.domains.contact(*name, rm.now())
	if ds == nil {
		return
	}
	ds.probing = false
	if r.Values["cpu_load_max"] >= rm.LoadThreshold {
		rm.Rebalances++
		rm.metrics.rebalances.Inc()
		if rm.tracer != nil {
			rm.tracer.EventCtxTier(telemetry.TraceContext{}, *name, "region",
				"regionmanager", telemetry.StageDirective,
				"shed_load -> "+*name, TierRegion)
		}
		_ = rm.send(ds.addr, msg.Message{From: rm.addr, Body: msg.Directive{
			From: rm.addr, Action: "shed_load", Amount: 1}})
	}
}

// CheckLiveness sweeps probes (retry once toward the same domain, at the
// address it is bound to now, then abandon) and evicts silent domains,
// mirroring the lower tiers. A probe's domain is still on the roster at
// the probe's first expiry — the probe was opened on contact, both share
// one timeout, and probes are swept first — but may be gone by its second.
func (rm *RegionManager) CheckLiveness() (retried, abandoned int) {
	if !rm.sweeping() {
		return 0, 0
	}
	now := rm.now()
	retried, abandoned = rm.probes.sweep(now, rm.live.Timeout,
		func(ref string, name *string) {
			_ = rm.send(rm.domains.get(*name).addr, msg.Message{From: rm.addr, Body: msg.Query{
				From: rm.addr, Keys: probeKeys, Ref: ref}})
		},
		func(_ string, name *string) {
			if ds := rm.domains.get(*name); ds != nil {
				ds.probing = false
			}
		})
	rm.ProbeRetries += uint64(retried)
	rm.ProbeTimeouts += uint64(abandoned)
	rm.domains.sweep(&rm.node, now)
	return retried, abandoned
}

// Saturation returns the latest reported saturation of a domain by
// name; ok is false for an unknown domain.
func (rm *RegionManager) Saturation(name string) (float64, bool) {
	if ds := rm.domains.get(name); ds != nil {
		return ds.saturation, true
	}
	return 0, false
}
