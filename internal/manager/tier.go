package manager

import (
	"strconv"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// The hierarchical control plane: host managers register with a domain
// manager, domain managers register with a region manager, reusing the
// flat topology's registration/heartbeat/liveness machinery at every
// tier. Queries fan out *down* the tree — a region asks only the
// domains whose aggregated state implicates them, a domain asks only
// its own hosts — and alarms batch and aggregate *up* (AlarmCoalescer,
// msg.AlarmBatch). Everything in this file is dormant until a scenario
// wires it: a flat 2-tier system never registers hosts with its domain
// manager, so its behavior (and its determinism goldens) is unchanged.

// Trace tier depths of the management hierarchy.
const (
	TierHost   = 1
	TierDomain = 2
	TierRegion = 3
)

// SetTier records the manager's depth in the management hierarchy;
// spans it emits carry the tier. Zero (the default) marks the flat
// topology and renders exactly as before tiers existed.
func (dm *DomainManager) SetTier(tier int) { dm.tier = tier }

// SetUplink attaches the coalescer that batches this domain's alarm
// traffic toward its parent tier.
func (dm *DomainManager) SetUplink(c *AlarmCoalescer) { dm.uplink = c }

// SetHostTimeout decouples host-roster eviction from the (typically
// much shorter) episode/fan-out timeout: hosts heartbeat on a slow
// period and must not be evicted between beats. Zero falls back to the
// liveness timeout.
func (dm *DomainManager) SetHostTimeout(d time.Duration) { dm.hostTimeout = d }

// Uplink returns the attached coalescer, if any.
func (dm *DomainManager) Uplink() *AlarmCoalescer { return dm.uplink }

// HostCount returns how many host managers are registered below this
// domain manager.
func (dm *DomainManager) HostCount() int { return len(dm.hostOrder) }

// HostAddrs returns the registered host manager addresses in
// registration order.
func (dm *DomainManager) HostAddrs() []string {
	addrs := make([]string, 0, len(dm.hostOrder))
	for _, name := range dm.hostOrder {
		addrs = append(addrs, dm.hosts[name])
	}
	return addrs
}

func (dm *DomainManager) nowOr0() time.Duration {
	if dm.livenessClock == nil {
		return 0
	}
	return dm.livenessClock()
}

// handleHostRegister adopts a child host manager: the same protocol a
// coordinator speaks to the policy agent, reused one tier up. The host
// is keyed by its identity's Host name; re-registration (a restarted
// host manager) rebinds the address and refreshes liveness.
func (dm *DomainManager) handleHostRegister(b msg.Register, from string) {
	if from == "" {
		return
	}
	name := b.ID.Host
	if name == "" {
		name = from
	}
	if dm.hosts == nil {
		dm.hosts = make(map[string]string)
		dm.hostSeen = make(map[string]time.Duration)
	}
	if _, known := dm.hosts[name]; !known {
		dm.hostOrder = append(dm.hostOrder, name)
		dm.evlog.Event(eventlog.Debug, "domainmanager", "host_adopted",
			eventlog.Str("host", name))
	}
	dm.hosts[name] = from
	dm.hostSeen[name] = dm.nowOr0()
	_ = dm.send(from, msg.Message{From: dm.addr,
		Body: msg.Ack{Ref: "register", OK: true}})
}

// handleHostHeartbeat refreshes a registered host's liveness deadline.
// A heartbeat from a host this manager does not know re-adopts it (the
// self-healing path after a domain manager restart), mirroring the
// host manager's OnUnknownProc re-adoption.
func (dm *DomainManager) handleHostHeartbeat(hb msg.Heartbeat, from string) {
	name := hb.ID.Host
	if _, known := dm.hosts[name]; !known {
		if from == "" {
			return
		}
		dm.evlog.Event(eventlog.Info, "domainmanager", "host_readopted",
			eventlog.Str("host", name))
		dm.handleHostRegister(msg.Register{ID: hb.ID}, from)
		return
	}
	dm.hostSeen[name] = dm.nowOr0()
}

// handleTierQuery answers a downward localization query from the parent
// tier by fanning it out to this domain's hosts — and only them. The
// per-host replies are aggregated (max per statistic) into one Report
// back to the requester, so the parent never sees per-host traffic.
func (dm *DomainManager) handleTierQuery(q msg.Query, tc telemetry.TraceContext) {
	if q.From == "" {
		return
	}
	dm.Fanouts++
	if len(dm.hostOrder) == 0 {
		_ = dm.send(q.From, msg.Message{From: dm.addr, Trace: tc, Body: msg.Report{
			Host: dm.addr, Ref: q.Ref,
			Values: map[string]float64{"hosts_asked": 0, "hosts_reporting": 0},
		}})
		return
	}
	dm.nextRef++
	iref := "f" + strconv.Itoa(dm.nextRef)
	f := &fanout{
		requester: q.From,
		ref:       q.Ref,
		keys:      q.Keys,
		asked:     len(dm.hostOrder),
		pending:   make(map[string]string, len(dm.hostOrder)),
		values:    make(map[string]float64, len(q.Keys)),
		ctx:       tc,
		at:        dm.nowOr0(),
	}
	if dm.fanouts == nil {
		dm.fanouts = make(map[string]*fanout)
	}
	dm.fanouts[iref] = f
	if dm.metrics != nil {
		dm.metrics.fanouts.Inc()
		dm.metrics.fanoutSubs.Add(uint64(f.asked))
	}
	for _, name := range dm.hostOrder {
		f.pending[name] = dm.hosts[name]
	}
	dm.FanoutQueries += uint64(f.asked)
	for _, name := range dm.hostOrder {
		_ = dm.send(dm.hosts[name], msg.Message{From: dm.addr, Trace: tc,
			Body: msg.Query{From: dm.addr, Keys: q.Keys, Ref: iref}})
	}
}

// handleFanoutReport folds one host's reply into the fan-out aggregate
// and completes the fan-out when every host (or every surviving host,
// after retry/abandonment) has answered.
func (dm *DomainManager) handleFanoutReport(iref string, f *fanout, r msg.Report) {
	if _, waiting := f.pending[r.Host]; !waiting {
		return // duplicate or post-abandon straggler
	}
	delete(f.pending, r.Host)
	f.reports++
	dm.hostContact(r.Host)
	for k, v := range r.Values {
		if cur, ok := f.values[k+"_max"]; !ok || v > cur {
			f.values[k+"_max"] = v
		}
		if k == "cpu_load" && (f.hotHost == "" || v > f.hotLoad) {
			f.hotHost = dm.hosts[r.Host]
			f.hotLoad = v
		}
	}
	if len(f.pending) == 0 {
		dm.completeFanout(iref, f)
	}
}

// hostContact refreshes liveness for a registered host (any message
// from it counts as contact, as with managed processes).
func (dm *DomainManager) hostContact(name string) {
	if _, known := dm.hosts[name]; known {
		dm.hostSeen[name] = dm.nowOr0()
	}
}

// completeFanout replies to the requester with the aggregate and closes
// the fan-out. The domain remembers the hottest host so a subsequent
// downward directive can be routed to it.
func (dm *DomainManager) completeFanout(iref string, f *fanout) {
	f.values["hosts_asked"] = float64(f.asked)
	f.values["hosts_reporting"] = float64(f.reports)
	if f.hotHost != "" {
		dm.lastHot = f.hotHost
	}
	_ = dm.send(f.requester, msg.Message{From: dm.addr, Trace: f.ctx, Body: msg.Report{
		Host: dm.addr, Values: f.values, Ref: f.ref,
	}})
	delete(dm.fanouts, iref)
}

// handleTierDirective routes a corrective directive from the parent
// tier down to the host the last fan-out implicated. A directive with
// no implicated host is dropped — the parent acted on stale aggregates.
func (dm *DomainManager) handleTierDirective(d msg.Directive, tc telemetry.TraceContext) {
	if dm.lastHot == "" {
		return
	}
	dm.DirectivesRouted++
	_ = dm.send(dm.lastHot, msg.Message{From: dm.addr, Trace: tc,
		Body: msg.Directive{From: dm.addr, Action: d.Action, Target: d.Target, Amount: d.Amount}})
}

// checkFanouts sweeps pending fan-outs the way CheckLiveness sweeps
// episodes — but a retry re-queries ONLY the hosts that have not
// reported (the hosts that did answer must not be asked again), and a
// fan-out that expires after its retry completes with the partial
// aggregate rather than pending forever.
func (dm *DomainManager) checkFanouts(now time.Duration) (retried, abandoned int) {
	if len(dm.fanouts) == 0 {
		return 0, 0
	}
	for _, iref := range sortedKeys(dm.fanouts, nil) {
		f := dm.fanouts[iref]
		if now-f.at <= dm.livenessTimeout {
			continue
		}
		if !f.retried {
			f.retried = true
			f.at = now
			dm.QueryRetries++
			if dm.metrics != nil {
				dm.metrics.queryRetries.Inc()
			}
			dm.evlog.EventCtx(f.ctx, eventlog.Info, "domainmanager", "fanout_retry",
				eventlog.Str("ref", iref), eventlog.Int("pending", len(f.pending)))
			for _, name := range sortedKeys(f.pending, nil) {
				_ = dm.send(f.pending[name], msg.Message{From: dm.addr, Trace: f.ctx,
					Body: msg.Query{From: dm.addr, Keys: f.keys, Ref: iref}})
			}
			retried++
			continue
		}
		dm.EpisodeTimeouts++
		if dm.metrics != nil {
			dm.metrics.timeouts.Inc()
		}
		dm.evlog.EventCtx(f.ctx, eventlog.Warn, "domainmanager", "fanout_abandoned",
			eventlog.Str("ref", iref), eventlog.Int("reported", f.reports),
			eventlog.Int("asked", f.asked))
		dm.completeFanout(iref, f)
		abandoned++
	}
	return retried, abandoned
}

// checkHosts evicts registered hosts whose last contact is older than
// the liveness timeout, in sorted order for deterministic runs.
func (dm *DomainManager) checkHosts(now time.Duration) int {
	if len(dm.hosts) == 0 {
		return 0
	}
	timeout := dm.hostTimeout
	if timeout <= 0 {
		timeout = dm.livenessTimeout
	}
	evicted := 0
	for _, name := range sortedKeys(dm.hosts, nil) {
		silent := now - dm.hostSeen[name]
		if silent <= timeout {
			continue
		}
		delete(dm.hosts, name)
		delete(dm.hostSeen, name)
		for i, n := range dm.hostOrder {
			if n == name {
				dm.hostOrder = append(dm.hostOrder[:i], dm.hostOrder[i+1:]...)
				break
			}
		}
		dm.HostsEvicted++
		if dm.metrics != nil {
			dm.metrics.hostsEvicted.Inc()
		}
		dm.evlog.Event(eventlog.Warn, "domainmanager", "host_evicted",
			eventlog.Str("host", name),
			eventlog.Num("silent_ns", float64(silent)))
		if dm.OnHostEvicted != nil {
			dm.OnHostEvicted(name)
		}
		evicted++
	}
	return evicted
}
