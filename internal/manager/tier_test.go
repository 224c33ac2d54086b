package manager

import (
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

// tierRig wires a DomainManager with a recording send and three
// registered host managers, for fan-out tests.
type tierRig struct {
	dm     *DomainManager
	clk    *manualClock
	sentTo []string
	sent   []msg.Message
}

func newTierRig(t *testing.T, policyAgents ...string) *tierRig {
	t.Helper()
	r := &tierRig{clk: &manualClock{}}
	r.dm = NewDomainManager("/domain/QoSDomainManager", func(to string, m msg.Message) error {
		r.sentTo = append(r.sentTo, to)
		r.sent = append(r.sent, m)
		return nil
	}, DomainConfig{Liveness: Liveness{Clock: r.clk.read, Timeout: 2 * time.Second}, PolicyAgents: policyAgents})
	for _, h := range []string{"host-a", "host-b", "host-c"} {
		r.dm.HandleMessage(msg.Message{From: "/" + h + "/QoSHostManager",
			Body: msg.Register{ID: msg.Identity{Host: h}}})
	}
	// Drop the three registration acks from the recording.
	r.sentTo, r.sent = nil, nil
	return r
}

// hostAddrs returns the registered host manager addresses in
// registration order.
func (r *tierRig) hostAddrs() []string {
	var addrs []string
	for _, name := range r.dm.hosts.order {
		addrs = append(addrs, *r.dm.hosts.get(name))
	}
	return addrs
}

// queries returns the (to, Query) pairs recorded since the last reset.
func (r *tierRig) queries() (to []string, qs []msg.Query) {
	for i, m := range r.sent {
		if q, ok := m.Body.(msg.Query); ok {
			to = append(to, r.sentTo[i])
			qs = append(qs, q)
		}
	}
	return to, qs
}

func TestDomainManagerRegistersHosts(t *testing.T) {
	r := newTierRig(t)
	if r.dm.HostCount() != 3 {
		t.Fatalf("HostCount = %d, want 3", r.dm.HostCount())
	}
	want := []string{"/host-a/QoSHostManager", "/host-b/QoSHostManager", "/host-c/QoSHostManager"}
	for i, a := range r.hostAddrs() {
		if a != want[i] {
			t.Errorf("HostAddrs[%d] = %q, want %q", i, a, want[i])
		}
	}
	// Re-registration rebinds the address without duplicating the host.
	r.dm.HandleMessage(msg.Message{From: "/host-b2/QoSHostManager",
		Body: msg.Register{ID: msg.Identity{Host: "host-b"}}})
	if r.dm.HostCount() != 3 {
		t.Fatalf("HostCount after re-register = %d, want 3", r.dm.HostCount())
	}
	if addrs := r.hostAddrs(); addrs[1] != "/host-b2/QoSHostManager" {
		t.Errorf("re-register did not rebind: %v", addrs)
	}
}

// TestDomainManagerFanOutAggregates: a downward query is fanned out to
// every registered host (and only them), and the per-host replies fold
// into one max-aggregated Report to the requester — the parent tier
// never sees per-host traffic.
func TestDomainManagerFanOutAggregates(t *testing.T) {
	r := newTierRig(t)
	r.dm.HandleMessage(msg.Message{From: "/region/QoSRegionManager",
		Body: msg.Query{From: "/region/QoSRegionManager", Keys: []string{"cpu_load"}, Ref: "r1"}})

	to, qs := r.queries()
	if len(qs) != 3 {
		t.Fatalf("fan-out sent %d queries, want 3 (to %v)", len(qs), to)
	}
	iref := qs[0].Ref
	if iref == "r1" {
		t.Fatal("fan-out reused the requester's ref for sub-queries")
	}
	loads := map[string]float64{"host-a": 1.0, "host-b": 3.5, "host-c": 2.0}
	for host, load := range loads {
		r.dm.HandleMessage(msg.Message{From: "/" + host + "/QoSHostManager",
			Body: msg.Report{Host: host, Ref: iref,
				Values: map[string]float64{"cpu_load": load}}})
	}

	last := r.sent[len(r.sent)-1]
	if r.sentTo[len(r.sentTo)-1] != "/region/QoSRegionManager" {
		t.Fatalf("final report went to %q", r.sentTo[len(r.sentTo)-1])
	}
	rep, ok := last.Body.(msg.Report)
	if !ok || rep.Ref != "r1" {
		t.Fatalf("final reply = %#v, want Report with requester ref r1", last.Body)
	}
	if rep.Values["cpu_load_max"] != 3.5 {
		t.Errorf("cpu_load_max = %v, want 3.5", rep.Values["cpu_load_max"])
	}
	if rep.Values["hosts_asked"] != 3 || rep.Values["hosts_reporting"] != 3 {
		t.Errorf("asked/reporting = %v/%v, want 3/3",
			rep.Values["hosts_asked"], rep.Values["hosts_reporting"])
	}
	if r.dm.Fanouts != 1 || r.dm.FanoutQueries != 3 {
		t.Errorf("Fanouts=%d FanoutQueries=%d, want 1/3", r.dm.Fanouts, r.dm.FanoutQueries)
	}

	// A downward directive routes to the hottest host from the fan-out.
	r.dm.HandleMessage(msg.Message{From: "/region/QoSRegionManager",
		Body: msg.Directive{From: "/region/QoSRegionManager", Action: "shed_load", Amount: 1}})
	last = r.sent[len(r.sent)-1]
	if d, ok := last.Body.(msg.Directive); !ok || d.Action != "shed_load" {
		t.Fatalf("routed directive = %#v", last.Body)
	}
	if got := r.sentTo[len(r.sentTo)-1]; got != "/host-b/QoSHostManager" {
		t.Errorf("directive routed to %q, want the hottest host /host-b/QoSHostManager", got)
	}
}

// TestFanOutRetryScopedToNonResponders is the regression test for the
// episode-retry bug one tier up: when a fan-out times out, the retry
// must re-query ONLY the hosts that have not reported — the hosts that
// already answered are not asked again.
func TestFanOutRetryScopedToNonResponders(t *testing.T) {
	r := newTierRig(t)
	r.dm.HandleMessage(msg.Message{From: "/region/QoSRegionManager",
		Body: msg.Query{From: "/region/QoSRegionManager", Keys: []string{"cpu_load"}, Ref: "r1"}})
	_, qs := r.queries()
	iref := qs[0].Ref
	r.sentTo, r.sent = nil, nil

	// Only host-b answers inside the window.
	r.dm.HandleMessage(msg.Message{From: "/host-b/QoSHostManager",
		Body: msg.Report{Host: "host-b", Ref: iref,
			Values: map[string]float64{"cpu_load": 3.5}}})

	r.clk.now = 3 * time.Second
	re, ab := r.dm.CheckLiveness()
	if re != 1 || ab != 0 {
		t.Fatalf("first expiry: retried=%d abandoned=%d, want 1/0", re, ab)
	}
	to, qs := r.queries()
	if len(qs) != 2 {
		t.Fatalf("retry sent %d queries, want 2 (only non-responders): %v", len(qs), to)
	}
	for _, dst := range to {
		if dst == "/host-b/QoSHostManager" {
			t.Fatalf("retry re-queried host-b, which already reported (sent to %v)", to)
		}
	}
	for _, q := range qs {
		if q.Ref != iref {
			t.Errorf("retry changed fan-out ref: %q vs %q", q.Ref, iref)
		}
	}
	if r.dm.QueryRetries != 1 {
		t.Errorf("QueryRetries = %d, want 1", r.dm.QueryRetries)
	}

	// host-c answers on the retry; host-a stays dead. The second expiry
	// completes the fan-out with the partial aggregate.
	r.dm.HandleMessage(msg.Message{From: "/host-c/QoSHostManager",
		Body: msg.Report{Host: "host-c", Ref: iref,
			Values: map[string]float64{"cpu_load": 1.0}}})
	r.clk.now = 6 * time.Second
	re, ab = r.dm.CheckLiveness()
	if re != 0 || ab != 1 {
		t.Fatalf("second expiry: retried=%d abandoned=%d, want 0/1", re, ab)
	}
	var rep msg.Report
	found := false
	for i, m := range r.sent {
		if rp, ok := m.Body.(msg.Report); ok && r.sentTo[i] == "/region/QoSRegionManager" {
			rep, found = rp, true
		}
	}
	if !found {
		t.Fatal("no partial report reached the requester after abandonment")
	}
	if rep.Values["hosts_asked"] != 3 || rep.Values["hosts_reporting"] != 2 {
		t.Errorf("partial aggregate asked/reporting = %v/%v, want 3/2",
			rep.Values["hosts_asked"], rep.Values["hosts_reporting"])
	}
	if rep.Values["cpu_load_max"] != 3.5 {
		t.Errorf("partial cpu_load_max = %v, want 3.5", rep.Values["cpu_load_max"])
	}
}

// TestDomainManagerEvictsSilentHost: a registered host silent past the
// liveness timeout is evicted from the roster; heartbeats keep it, and
// a heartbeat from an evicted host re-adopts it. Each eviction fires
// the OnHostEvicted hook (the rollout controller's mid-bake-eviction
// rollback hangs off it).
func TestDomainManagerEvictsSilentHost(t *testing.T) {
	r := newTierRig(t)
	var hookEvicted []string
	r.dm.OnHostEvicted = func(h string) { hookEvicted = append(hookEvicted, h) }
	r.clk.now = time.Second
	r.dm.HandleMessage(msg.Message{From: "/host-a/QoSHostManager",
		Body: msg.Heartbeat{ID: msg.Identity{Host: "host-a"}, Seq: 1}})
	r.clk.now = 2500 * time.Millisecond
	r.dm.CheckLiveness()
	if r.dm.HostCount() != 1 || r.dm.HostsEvicted != 2 {
		t.Fatalf("HostCount=%d HostsEvicted=%d, want 1/2 (b and c silent)",
			r.dm.HostCount(), r.dm.HostsEvicted)
	}
	if len(hookEvicted) != 2 || hookEvicted[0] != "host-b" || hookEvicted[1] != "host-c" {
		t.Fatalf("OnHostEvicted saw %v, want [host-b host-c]", hookEvicted)
	}
	// The evicted host's next heartbeat re-adopts it.
	r.dm.HandleMessage(msg.Message{From: "/host-b/QoSHostManager",
		Body: msg.Heartbeat{ID: msg.Identity{Host: "host-b"}, Seq: 9}})
	if r.dm.HostCount() != 2 {
		t.Fatalf("HostCount after re-adoption = %d, want 2", r.dm.HostCount())
	}
}

// TestRegionManagerProbesSaturatedDomain: alarm batches aggregate into
// per-domain saturation; crossing the threshold triggers a localization
// probe to that domain only, and a hot probe reply triggers a shed_load
// rebalance directive down the same edge.
func TestRegionManagerProbesSaturatedDomain(t *testing.T) {
	clk := &manualClock{}
	var sentTo []string
	var sent []msg.Message
	rm := NewRegionManager("/region/QoSRegionManager", func(to string, m msg.Message) error {
		sentTo = append(sentTo, to)
		sent = append(sent, m)
		return nil
	}, RegionConfig{Liveness: Liveness{Clock: clk.read, Timeout: 10 * time.Second}})
	for _, d := range []string{"domain-0", "domain-1"} {
		rm.HandleMessage(msg.Message{From: "/" + d + "/QoSDomainManager",
			Body: msg.Register{ID: msg.Identity{Host: d}}})
	}
	if rm.Domains() != 2 {
		t.Fatalf("Domains = %d, want 2", rm.Domains())
	}
	sentTo, sent = nil, nil

	id := msg.Identity{Host: "host-7", PID: 3, Executable: "mpeg_serve", Application: "app-7"}
	// A calm batch from domain-1: aggregates recorded, no probe.
	rm.HandleMessage(msg.Message{From: "/domain-1/QoSDomainManager",
		Body: msg.AlarmBatch{Tier: "domain",
			Alarms:  []msg.BatchedAlarm{{Alarm: msg.Alarm{ID: id, Policy: "p"}, Count: 2, Severity: 1}},
			Summary: map[string]float64{"domain_saturation": 0.001, "hosts": 100}}})
	if len(sent) != 0 {
		t.Fatalf("calm batch triggered %d sends", len(sent))
	}
	// A saturated batch from domain-0: probe exactly that domain.
	rm.HandleMessage(msg.Message{From: "/domain-0/QoSDomainManager",
		Body: msg.AlarmBatch{Tier: "domain",
			Alarms:  []msg.BatchedAlarm{{Alarm: msg.Alarm{ID: id, Policy: "p"}, Count: 5, Severity: 1}},
			Summary: map[string]float64{"domain_saturation": 0.05, "hosts": 100}}})
	if len(sent) != 1 || sentTo[0] != "/domain-0/QoSDomainManager" {
		t.Fatalf("probe sends = %v, want exactly one to domain-0", sentTo)
	}
	q, ok := sent[0].Body.(msg.Query)
	if !ok {
		t.Fatalf("probe body = %#v, want Query", sent[0].Body)
	}
	if s, _ := rm.Saturation("domain-0"); s != 0.05 {
		t.Errorf("Saturation(domain-0) = %v, want 0.05", s)
	}
	if rm.Batches != 2 || rm.BatchedAlarms != 7 || rm.Probes != 1 {
		t.Errorf("Batches=%d BatchedAlarms=%d Probes=%d, want 2/7/1",
			rm.Batches, rm.BatchedAlarms, rm.Probes)
	}

	// While the probe is in flight, further saturated batches do not
	// stack probes on the same domain.
	rm.HandleMessage(msg.Message{From: "/domain-0/QoSDomainManager",
		Body: msg.AlarmBatch{Tier: "domain",
			Summary: map[string]float64{"domain_saturation": 0.08}}})
	if rm.Probes != 1 {
		t.Fatalf("Probes = %d after in-flight batch, want still 1", rm.Probes)
	}

	// The probe reply says the domain's worst host is hot: rebalance.
	rm.HandleMessage(msg.Message{From: "/domain-0/QoSDomainManager",
		Body: msg.Report{Host: "/domain-0/QoSDomainManager", Ref: q.Ref,
			Values: map[string]float64{"cpu_load_max": 4.2, "hosts_asked": 100, "hosts_reporting": 100}}})
	last := sent[len(sent)-1]
	d, ok := last.Body.(msg.Directive)
	if !ok || d.Action != "shed_load" {
		t.Fatalf("rebalance body = %#v, want shed_load Directive", last.Body)
	}
	if sentTo[len(sentTo)-1] != "/domain-0/QoSDomainManager" {
		t.Errorf("rebalance sent to %q", sentTo[len(sentTo)-1])
	}
	if rm.Rebalances != 1 {
		t.Errorf("Rebalances = %d, want 1", rm.Rebalances)
	}
}

// TestRegionManagerProbeRetryAndDomainEviction: an unanswered probe is
// retried once toward the same domain and then abandoned, and a domain
// silent past the liveness timeout is evicted from the region roster.
func TestRegionManagerProbeRetryAndDomainEviction(t *testing.T) {
	clk := &manualClock{}
	var sentTo []string
	rm := NewRegionManager("/region/QoSRegionManager", func(to string, m msg.Message) error {
		sentTo = append(sentTo, to)
		return nil
	}, RegionConfig{Liveness: Liveness{Clock: clk.read, Timeout: 2 * time.Second}})
	rm.HandleMessage(msg.Message{From: "/domain-0/QoSDomainManager",
		Body: msg.Register{ID: msg.Identity{Host: "domain-0"}}})
	rm.HandleMessage(msg.Message{From: "/domain-0/QoSDomainManager",
		Body: msg.AlarmBatch{Tier: "domain",
			Summary: map[string]float64{"domain_saturation": 0.5}}})
	if rm.Probes != 1 {
		t.Fatalf("Probes = %d, want 1", rm.Probes)
	}
	n := len(sentTo)

	clk.now = 3 * time.Second
	re, ab := rm.CheckLiveness()
	if re != 1 || ab != 0 || rm.ProbeRetries != 1 || len(sentTo) != n+1 {
		t.Fatalf("first expiry: retried=%d abandoned=%d ProbeRetries=%d sends=%d",
			re, ab, rm.ProbeRetries, len(sentTo)-n)
	}
	// The probe timestamp was refreshed by the retry, but the domain has
	// now also been silent past the timeout: the second sweep abandons
	// the probe and evicts the domain.
	clk.now = 6 * time.Second
	re, ab = rm.CheckLiveness()
	if re != 0 || ab != 1 || rm.ProbeTimeouts != 1 {
		t.Fatalf("second expiry: retried=%d abandoned=%d ProbeTimeouts=%d", re, ab, rm.ProbeTimeouts)
	}
	if rm.Domains() != 0 || rm.DomainsEvicted != 1 {
		t.Fatalf("Domains=%d DomainsEvicted=%d, want 0/1", rm.Domains(), rm.DomainsEvicted)
	}
}

// TestDomainManagerUplinkBatchesAlarms: with an uplink coalescer
// attached, every alarm the domain manager handles is also merged into
// the upward batch — the localization episode itself is unaffected.
func TestDomainManagerUplinkBatchesAlarms(t *testing.T) {
	var timers []func()
	after := func(d time.Duration, fn func()) { timers = append(timers, fn) }
	var upTo []string
	var up []msg.Message
	upSend := func(to string, m msg.Message) error {
		upTo = append(upTo, to)
		up = append(up, m)
		return nil
	}
	co := NewAlarmCoalescer("domain", "/domain/QoSDomainManager",
		"/region/QoSRegionManager", upSend, 2*time.Second, after)
	dm := NewDomainManager("/domain/QoSDomainManager", func(string, msg.Message) error { return nil },
		DomainConfig{Uplink: co})
	dm.RegisterAppServer("VideoApplication", "/server-host/QoSHostManager", "mpeg_serve")
	dm.SeverityFor = func(a msg.Alarm) int {
		if a.Readings["fps"] < 5 {
			return 2
		}
		return 1
	}

	id := msg.Identity{Host: "client-host", PID: 7, Executable: "mpeg_play",
		Application: "VideoApplication"}
	for i := 0; i < 3; i++ {
		dm.HandleMessage(msg.Message{From: "/client-host/QoSHostManager",
			Body: msg.Alarm{ID: id, Policy: "NotifyQoSViolation",
				Readings: map[string]float64{"fps": 12}}})
	}
	if co.Added != 3 || co.Pending() != 1 {
		t.Fatalf("Added=%d Pending=%d, want 3 coalesced into 1", co.Added, co.Pending())
	}
	if len(up) != 0 {
		t.Fatalf("batch shipped before the window expired: %d sends", len(up))
	}
	if len(timers) != 1 {
		t.Fatalf("armed %d flush timers, want 1", len(timers))
	}
	timers[0]()
	if len(up) != 1 || upTo[0] != "/region/QoSRegionManager" {
		t.Fatalf("flush sends = %v, want one to the region", upTo)
	}
	b := up[0].Body.(msg.AlarmBatch)
	if len(b.Alarms) != 1 || b.Alarms[0].Count != 3 {
		t.Fatalf("batch = %+v, want one entry with Count 3", b)
	}
	if dm.Alarms != 3 {
		t.Errorf("Alarms = %d, want 3 (uplink must not eat the episode path)", dm.Alarms)
	}
}

// TestTierSpansCarryDepth: spans emitted by a tiered manager carry its
// depth; flat-topology spans stay at zero.
func TestTierSpansCarryDepth(t *testing.T) {
	clk := &manualClock{}
	tracer := telemetry.NewTracer(clk.read)
	tc := tracer.Begin("client-host:7", "NotifyQoSViolation", "coordinator", "fps out of band")
	tracer.EventCtxTier(tc, "client-host:7", "NotifyQoSViolation", "domainmanager",
		telemetry.StageLocate, "asking hosts", TierDomain)
	tracer.EventCtx(tc, "client-host:7", "NotifyQoSViolation", "coordinator",
		telemetry.StageNotify, "flat event")
	spans := tracer.Traces()[0].Spans
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[1].Tier != TierDomain {
		t.Errorf("tiered span Tier = %d, want %d", spans[1].Tier, TierDomain)
	}
	if spans[0].Tier != 0 || spans[2].Tier != 0 {
		t.Errorf("flat spans carry tier: %d/%d, want 0/0", spans[0].Tier, spans[2].Tier)
	}
}

// TestPolicyDeltaRelay pins the distribution edge of live policy
// rollout: a delta reaching the region fans out to every registered
// domain, a delta reaching a domain fans out to its configured policy
// agents, and the trace context survives both hops.
func TestPolicyDeltaRelay(t *testing.T) {
	var regionTo []string
	var regionSent []msg.Message
	rm := NewRegionManager("/region/QoSRegionManager", func(to string, m msg.Message) error {
		regionTo = append(regionTo, to)
		regionSent = append(regionSent, m)
		return nil
	}, RegionConfig{})
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	rm.SetTelemetry(reg, nil)
	for _, d := range []string{"d-1", "d-2"} {
		rm.HandleMessage(msg.Message{From: "/" + d + "/QoSDomainManager",
			Body: msg.Register{ID: msg.Identity{Host: d}}})
	}
	regionTo, regionSent = nil, nil

	trace := telemetry.TraceContext{TraceID: "rollout#1", Span: 2}
	delta := msg.PolicyDelta{Generation: 3, Prev: 2, Executable: "mpeg_play",
		Scope: "fleet", Reason: "promoted"}
	rm.HandleMessage(msg.Message{From: "/repo/hub", Trace: trace, Body: delta})
	if len(regionSent) != 2 ||
		regionTo[0] != "/d-1/QoSDomainManager" || regionTo[1] != "/d-2/QoSDomainManager" {
		t.Fatalf("region relayed to %v", regionTo)
	}
	for i, m := range regionSent {
		if m.Trace != trace {
			t.Errorf("relay %d lost trace context: %+v", i, m.Trace)
		}
		if d, ok := m.Body.(msg.PolicyDelta); !ok || d.Generation != 3 {
			t.Errorf("relay %d body = %+v", i, m.Body)
		}
		if m.From != "/region/QoSRegionManager" {
			t.Errorf("relay %d from = %q", i, m.From)
		}
	}
	if rm.PolicyDeltasRelayed != 2 {
		t.Errorf("PolicyDeltasRelayed = %d", rm.PolicyDeltasRelayed)
	}
	if n := reg.Counter("region.policy_deltas_relayed").Value(); n != 2 {
		t.Errorf("region.policy_deltas_relayed = %d", n)
	}

	// Domain hop: only configured policy agents receive the delta.
	r := newTierRig(t)
	r.dm.HandleMessage(msg.Message{From: "/region", Trace: trace, Body: delta})
	if len(r.sent) != 0 {
		t.Fatalf("domain with no policy agents relayed %d messages", len(r.sent))
	}
	r = newTierRig(t, "/mgmt/PolicyAgent", "/mgmt/PolicyAgent2")
	r.dm.HandleMessage(msg.Message{From: "/region", Trace: trace, Body: delta})
	if len(r.sent) != 2 || r.sentTo[0] != "/mgmt/PolicyAgent" || r.sentTo[1] != "/mgmt/PolicyAgent2" {
		t.Fatalf("domain relayed to %v", r.sentTo)
	}
	if r.sent[0].Trace != trace {
		t.Errorf("domain relay lost trace context: %+v", r.sent[0].Trace)
	}
	if r.dm.PolicyDeltasRelayed != 2 {
		t.Errorf("domain PolicyDeltasRelayed = %d", r.dm.PolicyDeltasRelayed)
	}
}
