package manager

import (
	"strconv"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

// domainState is everything the region keeps about one registered
// domain: its address, liveness deadline, and the aggregates from its
// alarm batches. The region holds state per DOMAIN, never per host —
// per-host memory at the region tier would defeat the hierarchy.
type domainState struct {
	name       string
	addr       string
	lastSeen   time.Duration
	saturation float64 // latest domain_saturation summary
	hosts      float64 // latest hosts summary
	alarms     uint64  // cumulative batched alarms from this domain
	probing    bool    // a localization query is already in flight
}

// regionProbe is one in-flight downward query to a single implicated
// domain.
type regionProbe struct {
	domain  string // domain manager address
	at      time.Duration
	retried bool
}

// rmMetrics holds the region manager's pre-resolved metric handles.
type rmMetrics struct {
	batches      *telemetry.Counter
	alarms       *telemetry.Counter
	probes       *telemetry.Counter
	rebalances   *telemetry.Counter
	evicted      *telemetry.Counter
	policyRelays *telemetry.Counter
	domains      *telemetry.Gauge
}

// RegionManager is the third tier of the control plane: domain managers
// register with it (the same registration/heartbeat protocol hosts
// speak to a domain), their coalesced alarm batches aggregate into
// per-domain saturation state, and localization queries fan out DOWN
// only to the domains whose aggregates implicate them. Corrective
// rebalance directives travel back down the same edge.
type RegionManager struct {
	addr string
	send Send

	domains map[string]*domainState // keyed by domain manager address
	byName  map[string]string       // domain name -> address
	order   []string                // registration order of addresses
	probes  map[string]*regionProbe // ref -> in-flight probe
	nextRef int

	// SaturationThreshold gates downward probes: a batch whose
	// domain_saturation reaches it implicates the domain (default 0.02).
	SaturationThreshold float64
	// LoadThreshold gates rebalance directives: a probed domain whose
	// aggregated cpu_load_max reaches it gets a shed_load directive
	// (default 2.0, matching the domain rule set's CPU threshold).
	LoadThreshold float64
	// ShedAmount rides on rebalance directives (default 1.0).
	ShedAmount float64

	livenessClock   telemetry.Clock
	livenessTimeout time.Duration

	tracer  *telemetry.Tracer
	metrics *rmMetrics

	// summarySink, when set, receives inbound domain telemetry summaries
	// (SetSummarySink wires a terminal SummaryAggregator's Ingest here).
	summarySink func(msg.TelemetrySummary)

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
func NewRegionManager(addr string, send Send) *RegionManager {
	return &RegionManager{
		addr:                addr,
		send:                send,
		domains:             make(map[string]*domainState),
		byName:              make(map[string]string),
		probes:              make(map[string]*regionProbe),
		SaturationThreshold: 0.02,
		LoadThreshold:       2.0,
		ShedAmount:          1.0,
	}
}

// Addr returns the manager's management address.
func (rm *RegionManager) Addr() string { return rm.addr }

// Domains returns how many domain managers are registered.
func (rm *RegionManager) Domains() int { return len(rm.order) }

// SetTelemetry attaches the region manager to a metrics registry and
// tracer under the "region." prefix.
func (rm *RegionManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	rm.tracer = tracer
	if reg == nil {
		rm.metrics = nil
		return
	}
	rm.metrics = &rmMetrics{
		batches:      reg.Counter("region.batches"),
		alarms:       reg.Counter("region.alarms_batched"),
		probes:       reg.Counter("region.probes"),
		rebalances:   reg.Counter("region.rebalances"),
		evicted:      reg.Counter("region.domains_evicted"),
		policyRelays: reg.Counter("region.policy_deltas_relayed"),
		domains:      reg.Gauge("region.domains"),
	}
}

// EnableLiveness arms domain eviction and probe timeouts, exactly as
// the lower tiers arm theirs.
func (rm *RegionManager) EnableLiveness(clock telemetry.Clock, timeout time.Duration) {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	rm.livenessClock = clock
	rm.livenessTimeout = timeout
}

func (rm *RegionManager) now() time.Duration {
	if rm.livenessClock == nil {
		return 0
	}
	return rm.livenessClock()
}

// HandleMessage processes one inbound management message.
func (rm *RegionManager) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case *msg.Register:
		rm.handleRegister(*body, m.From)
	case msg.Register:
		rm.handleRegister(body, m.From)
	case *msg.Heartbeat:
		rm.handleHeartbeat(*body, m.From)
	case msg.Heartbeat:
		rm.handleHeartbeat(body, m.From)
	case *msg.AlarmBatch:
		rm.handleBatch(*body, m.From)
	case msg.AlarmBatch:
		rm.handleBatch(body, m.From)
	case *msg.Report:
		rm.handleReport(*body)
	case msg.Report:
		rm.handleReport(body)
	case *msg.Alarm:
		rm.handleAlarm(*body, m.From, m.Trace)
	case msg.Alarm:
		rm.handleAlarm(body, m.From, m.Trace)
	case *msg.TelemetrySummary:
		rm.handleSummary(*body)
	case msg.TelemetrySummary:
		rm.handleSummary(body)
	case *msg.PolicyDelta:
		rm.relayDelta(m)
	case msg.PolicyDelta:
		rm.relayDelta(m)
	case *msg.Ack, msg.Ack:
		// Directive acknowledgements are informational.
	}
}

// relayDelta forwards a repository policy delta to every registered
// domain manager, in registration order. The region adds no policy
// knowledge of its own — it is the distribution edge of the hierarchy,
// so the delta (and its trace context) passes through unchanged apart
// from the From address.
func (rm *RegionManager) relayDelta(m msg.Message) {
	for _, addr := range rm.order {
		_ = rm.send(addr, msg.Message{From: rm.addr, Trace: m.Trace, Body: m.Body})
	}
	rm.PolicyDeltasRelayed += uint64(len(rm.order))
	if rm.metrics != nil && len(rm.order) > 0 {
		rm.metrics.policyRelays.Add(uint64(len(rm.order)))
	}
}

// SetSummarySink routes inbound domain telemetry summaries to fn —
// typically a terminal SummaryAggregator's Ingest, which merges them
// into the fleet-level aggregate the export surface serves.
func (rm *RegionManager) SetSummarySink(fn func(msg.TelemetrySummary)) {
	rm.summarySink = fn
}

func (rm *RegionManager) handleSummary(ts msg.TelemetrySummary) {
	if rm.summarySink != nil {
		rm.summarySink(ts)
	}
}

// handleRegister adopts a domain manager.
func (rm *RegionManager) handleRegister(b msg.Register, from string) {
	if from == "" {
		return
	}
	name := b.ID.Host
	if name == "" {
		name = from
	}
	if _, known := rm.domains[from]; !known {
		rm.order = append(rm.order, from)
	}
	rm.domains[from] = &domainState{name: name, addr: from, lastSeen: rm.now()}
	rm.byName[name] = from
	if rm.metrics != nil {
		rm.metrics.domains.Set(float64(len(rm.order)))
	}
	_ = rm.send(from, msg.Message{From: rm.addr,
		Body: msg.Ack{Ref: "register", OK: true}})
}

func (rm *RegionManager) handleHeartbeat(hb msg.Heartbeat, from string) {
	addr, ok := rm.byName[hb.ID.Host]
	if !ok {
		if from != "" {
			rm.handleRegister(msg.Register{ID: hb.ID}, from)
		}
		return
	}
	rm.domains[addr].lastSeen = rm.now()
}

// handleAlarm accepts an unbatched alarm from a domain running in the
// no-batching degenerate mode: it is folded into the same per-domain
// aggregates as a one-entry batch.
func (rm *RegionManager) handleAlarm(a msg.Alarm, from string, _ telemetry.TraceContext) {
	rm.handleBatch(msg.AlarmBatch{Tier: "domain",
		Alarms: []msg.BatchedAlarm{{Alarm: a, Count: 1, Severity: 1}}}, from)
}

// handleBatch ingests one domain's coalesced alarm window: per-domain
// aggregates are updated (saturation, cumulative alarms), and a domain
// whose saturation crosses the threshold is probed — only that domain,
// never the whole fleet.
func (rm *RegionManager) handleBatch(b msg.AlarmBatch, from string) {
	ds, ok := rm.domains[from]
	if !ok {
		return // unregistered sender
	}
	ds.lastSeen = rm.now()
	rm.Batches++
	var n uint64
	for _, e := range b.Alarms {
		n += uint64(e.Count)
	}
	rm.BatchedAlarms += n
	ds.alarms += n
	if s, ok := b.Summary["domain_saturation"]; ok {
		ds.saturation = s
	}
	if h, ok := b.Summary["hosts"]; ok {
		ds.hosts = h
	}
	if rm.metrics != nil {
		rm.metrics.batches.Inc()
		rm.metrics.alarms.Add(n)
	}
	if ds.saturation >= rm.SaturationThreshold && !ds.probing {
		rm.probe(ds)
	}
}

// probe fans a localization query down to one implicated domain.
func (rm *RegionManager) probe(ds *domainState) {
	rm.nextRef++
	ref := "r" + strconv.Itoa(rm.nextRef)
	ds.probing = true
	rm.probes[ref] = &regionProbe{domain: ds.addr, at: rm.now()}
	rm.Probes++
	if rm.metrics != nil {
		rm.metrics.probes.Inc()
	}
	if rm.tracer != nil {
		rm.tracer.EventCtxTier(telemetry.TraceContext{}, ds.name, "region",
			"regionmanager", telemetry.StageLocate,
			"probe "+ds.name+" (saturation over threshold)", TierRegion)
	}
	_ = rm.send(ds.addr, msg.Message{From: rm.addr, Body: msg.Query{
		From: rm.addr, Keys: []string{"cpu_load", "mem_usage"}, Ref: ref}})
}

// handleReport closes a probe with the domain's aggregated statistics:
// a domain whose worst host is over the load threshold gets a rebalance
// directive, which the domain routes to that host.
func (rm *RegionManager) handleReport(r msg.Report) {
	p, ok := rm.probes[r.Ref]
	if !ok {
		return
	}
	delete(rm.probes, r.Ref)
	ds := rm.domains[p.domain]
	if ds == nil {
		return
	}
	ds.lastSeen = rm.now()
	ds.probing = false
	if r.Values["cpu_load_max"] >= rm.LoadThreshold {
		rm.Rebalances++
		if rm.metrics != nil {
			rm.metrics.rebalances.Inc()
		}
		if rm.tracer != nil {
			rm.tracer.EventCtxTier(telemetry.TraceContext{}, ds.name, "region",
				"regionmanager", telemetry.StageDirective,
				"shed_load -> "+ds.name, TierRegion)
		}
		_ = rm.send(p.domain, msg.Message{From: rm.addr, Body: msg.Directive{
			From: rm.addr, Action: "shed_load", Amount: rm.ShedAmount}})
	}
}

// CheckLiveness sweeps probes (retry once toward the same domain, then
// abandon) and evicts silent domains, mirroring the lower tiers.
func (rm *RegionManager) CheckLiveness() (retried, abandoned int) {
	if rm.livenessClock == nil || rm.livenessTimeout <= 0 {
		return 0, 0
	}
	now := rm.livenessClock()
	for _, ref := range sortedKeys(rm.probes, nil) {
		p := rm.probes[ref]
		if now-p.at <= rm.livenessTimeout {
			continue
		}
		if !p.retried {
			p.retried = true
			p.at = now
			rm.ProbeRetries++
			_ = rm.send(p.domain, msg.Message{From: rm.addr, Body: msg.Query{
				From: rm.addr, Keys: []string{"cpu_load", "mem_usage"}, Ref: ref}})
			retried++
			continue
		}
		rm.ProbeTimeouts++
		if ds := rm.domains[p.domain]; ds != nil {
			ds.probing = false
		}
		delete(rm.probes, ref)
		abandoned++
	}
	for _, addr := range sortedKeys(rm.domains, nil) {
		ds := rm.domains[addr]
		if now-ds.lastSeen <= rm.livenessTimeout {
			continue
		}
		delete(rm.domains, addr)
		delete(rm.byName, ds.name)
		for i, a := range rm.order {
			if a == addr {
				rm.order = append(rm.order[:i], rm.order[i+1:]...)
				break
			}
		}
		rm.DomainsEvicted++
		if rm.metrics != nil {
			rm.metrics.evicted.Inc()
			rm.metrics.domains.Set(float64(len(rm.order)))
		}
	}
	return retried, abandoned
}

// Saturation returns the latest reported saturation of a domain by
// name; ok is false for an unknown domain.
func (rm *RegionManager) Saturation(name string) (float64, bool) {
	addr, ok := rm.byName[name]
	if !ok {
		return 0, false
	}
	return rm.domains[addr].saturation, true
}
