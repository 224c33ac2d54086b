package manager

import (
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// nodeRig is a bare node with a recording send, a hand-advanced clock
// and an event log, plus a host-name roster bound the way the domain
// binds its hosts.
type nodeRig struct {
	clk     *manualClock
	n       *node
	r       *roster[string, string]
	evicted uint64
	hooked  []string
	sentTo  []string
}

func newNodeRig() *nodeRig {
	nr := &nodeRig{clk: &manualClock{}}
	nr.n = &node{addr: "/d", component: "domainmanager",
		live:  Liveness{Clock: nr.clk.read, Timeout: 2 * time.Second},
		evlog: eventlog.New(nr.clk.read, 0),
		send: func(to string, m msg.Message) error {
			nr.sentTo = append(nr.sentTo, to)
			return nil
		}}
	nr.r = &roster[string, string]{kind: "host", timeout: 2 * time.Second, evicted: &nr.evicted,
		metric: &telemetry.Counter{},
		bind:   func(_ string, addr *string, from string) { *addr = from },
		describe: func(name string, _ *string, _ time.Duration) []eventlog.Field {
			return []eventlog.Field{eventlog.Str("host", name)}
		},
		onEvict: func(name string, _ *string) { nr.hooked = append(nr.hooked, name) }}
	return nr
}

func (nr *nodeRig) register(name, from string) {
	registerChild(nr.n, nr.r, msg.Identity{Host: name}, from)
}

func (nr *nodeRig) codes() []string {
	var codes []string
	for _, rec := range nr.n.evlog.Records(eventlog.Query{}) {
		codes = append(codes, rec.Code+":"+rec.FieldString("host"))
	}
	return codes
}

// TestRosterEvictsSilentInSortedOrder: the sweep evicts exactly the
// children silent past the timeout, in sorted key order whatever the
// registration order, and each eviction bumps the statistic and the
// counter, writes its record and runs the hook.
func TestRosterEvictsSilentInSortedOrder(t *testing.T) {
	nr := newNodeRig()
	for _, h := range []string{"host-c", "host-a", "host-b"} {
		nr.register(h, "/"+h)
	}
	nr.clk.now = 2 * time.Second
	nr.r.contact("host-b", nr.n.now())
	nr.clk.now = 3 * time.Second
	if n := nr.r.sweep(nr.n, nr.n.now()); n != 2 {
		t.Fatalf("sweep evicted %d, want 2 (host-a and host-c silent 3s)", n)
	}
	if strings.Join(nr.hooked, " ") != "host-a host-c" {
		t.Errorf("hook order = %v, want [host-a host-c]", nr.hooked)
	}
	if nr.evicted != 2 || nr.r.metric.Value() != 2 {
		t.Errorf("statistic %d, counter %d, want 2/2", nr.evicted, nr.r.metric.Value())
	}
	want := "host_adopted:host-c host_adopted:host-a host_adopted:host-b host_evicted:host-a host_evicted:host-c"
	if got := strings.Join(nr.codes(), " "); got != want {
		t.Errorf("event log = %s\nwant %s", got, want)
	}
	if nr.r.len() != 1 || nr.r.order[0] != "host-b" || nr.r.get("host-a") != nil {
		t.Errorf("roster after sweep: order %v", nr.r.order)
	}
	// A second sweep finds nothing new to evict.
	if n := nr.r.sweep(nr.n, nr.n.now()); n != 0 {
		t.Errorf("second sweep evicted %d", n)
	}
}

// TestRosterReadoptsFromHeartbeat: a heartbeat from a child the roster
// does not know (evicted, or lost by a restart) re-adopts it and acks it;
// one from a known child only refreshes it; one without a sender cannot
// be answered and changes nothing.
func TestRosterReadoptsFromHeartbeat(t *testing.T) {
	nr := newNodeRig()
	beat := msg.Heartbeat{ID: msg.Identity{Host: "host-a"}, Seq: 1}
	heartbeatChild(nr.n, nr.r, beat, "")
	if nr.r.len() != 0 || len(nr.sentTo) != 0 {
		t.Fatalf("sender-less beat adopted %d, sent %v", nr.r.len(), nr.sentTo)
	}
	heartbeatChild(nr.n, nr.r, beat, "/host-a")
	if addr := nr.r.get("host-a"); addr == nil || *addr != "/host-a" {
		t.Fatalf("heartbeat did not re-adopt host-a: %v", addr)
	}
	if len(nr.sentTo) != 1 || nr.sentTo[0] != "/host-a" {
		t.Errorf("re-adoption acks = %v, want one to /host-a", nr.sentTo)
	}
	nr.clk.now = 5 * time.Second
	heartbeatChild(nr.n, nr.r, beat, "/host-a")
	if len(nr.sentTo) != 1 || nr.r.len() != 1 {
		t.Errorf("known child's beat re-adopted it: acks %v, roster %d", nr.sentTo, nr.r.len())
	}
	if n := nr.r.sweep(nr.n, 6*time.Second); n != 0 {
		t.Errorf("refreshed child evicted (%d)", n)
	}
	want := "host_readopted:host-a host_adopted:host-a"
	if got := strings.Join(nr.codes(), " "); got != want {
		t.Errorf("event log = %s, want %s", got, want)
	}
}

// TestRosterReRegisterRebinds: a child registering again from a new
// address is rebound in place — one entry, its registration slot kept.
func TestRosterReRegisterRebinds(t *testing.T) {
	nr := newNodeRig()
	nr.register("host-a", "/old/host-a")
	nr.register("host-b", "/host-b")
	nr.register("host-a", "/new/host-a")
	if nr.r.len() != 2 || strings.Join(nr.r.order, " ") != "host-a host-b" {
		t.Fatalf("roster order %v, want [host-a host-b]", nr.r.order)
	}
	if addr := *nr.r.get("host-a"); addr != "/new/host-a" {
		t.Errorf("host-a bound to %q, want /new/host-a", addr)
	}
	// A registration without a host name is keyed by its address.
	nr.register("", "/anon")
	if nr.r.get("/anon") == nil {
		t.Error("nameless registration not keyed by its address")
	}
}

// TestRequestsRetryThenAbandon: only requests still open are retried —
// an answered one is gone from the table — each is retried once, then
// abandoned on the next expiry, and refs are swept in sorted order.
func TestRequestsRetryThenAbandon(t *testing.T) {
	reqs := requests[string]{}
	for _, ref := range []string{"e2", "e10", "e1", "e3"} {
		reqs.open(ref, "server-"+ref, 0)
	}
	delete(reqs, "e3") // answered
	var log []string
	retry := func(ref string, v *string) { log = append(log, "retry "+ref+" "+*v) }
	abandon := func(ref string, _ *string) { log = append(log, "abandon "+ref) }
	const timeout = 2 * time.Second

	if re, ab := reqs.sweep(time.Second, timeout, retry, abandon); re != 0 || ab != 0 {
		t.Fatalf("premature sweep: %d/%d", re, ab)
	}
	if re, ab := reqs.sweep(3*time.Second, timeout, retry, abandon); re != 3 || ab != 0 {
		t.Fatalf("first expiry: retried %d abandoned %d, want 3/0", re, ab)
	}
	delete(reqs, "e10") // answered after its retry
	// The retry restarted each clock: nothing is due one second later.
	if re, ab := reqs.sweep(4*time.Second, timeout, retry, abandon); re != 0 || ab != 0 {
		t.Fatalf("sweep inside the retry window: %d/%d", re, ab)
	}
	if re, ab := reqs.sweep(6*time.Second, timeout, retry, abandon); re != 0 || ab != 2 {
		t.Fatalf("second expiry: retried %d abandoned %d, want 0/2", re, ab)
	}
	want := "retry e1 server-e1,retry e10 server-e10,retry e2 server-e2,abandon e1,abandon e2"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("sweep log = %s\nwant %s", got, want)
	}
	if len(reqs) != 0 {
		t.Errorf("%d requests left open", len(reqs))
	}
}

// TestRegionReRegisterKeepsState: a domain manager re-registering from a
// new address keeps its aggregates and its in-flight probe — the next
// saturated batch does not probe it twice — and the old address is
// forgotten: it no longer receives policy deltas, its batches are not
// attributed, and the live domain is never evicted as a stale duplicate.
func TestRegionReRegisterKeepsState(t *testing.T) {
	clk := &manualClock{}
	var sentTo []string
	rm := NewRegionManager("/region/QoSRegionManager", func(to string, m msg.Message) error {
		sentTo = append(sentTo, to)
		return nil
	}, RegionConfig{Liveness: Liveness{Clock: clk.read, Timeout: 10 * time.Second}})
	register := func(from string) {
		rm.HandleMessage(msg.Message{From: from, Body: msg.Register{ID: msg.Identity{Host: "domain-0"}}})
	}
	saturated := func(from string) {
		rm.HandleMessage(msg.Message{From: from, Body: msg.AlarmBatch{Tier: "domain",
			Summary: map[string]float64{"domain_saturation": 0.5}}})
	}
	register("/old/QoSDomainManager")
	saturated("/old/QoSDomainManager")
	if rm.Probes != 1 {
		t.Fatalf("Probes = %d, want 1", rm.Probes)
	}

	clk.now = 5 * time.Second
	register("/new/QoSDomainManager")
	saturated("/new/QoSDomainManager")
	if rm.Probes != 1 {
		t.Errorf("Probes = %d after re-registration, want 1 (probe still in flight)", rm.Probes)
	}
	if s, ok := rm.Saturation("domain-0"); !ok || s != 0.5 {
		t.Errorf("saturation after re-registration = %v/%v, want 0.5", s, ok)
	}
	if rm.Domains() != 1 {
		t.Errorf("Domains = %d, want 1", rm.Domains())
	}
	batches := rm.Batches
	saturated("/old/QoSDomainManager")
	if rm.Batches != batches {
		t.Error("a batch from the forgotten address was attributed")
	}

	sentTo = nil
	rm.HandleMessage(msg.Message{From: "/repo/hub", Body: msg.PolicyDelta{Generation: 1,
		Executable: "mpeg_play", Scope: "fleet"}})
	if len(sentTo) != 1 || sentTo[0] != "/new/QoSDomainManager" {
		t.Errorf("policy delta relayed to %v, want only the new address", sentTo)
	}

	clk.now = 12 * time.Second
	rm.HandleMessage(msg.Message{From: "/new/QoSDomainManager",
		Body: msg.Heartbeat{ID: msg.Identity{Host: "domain-0", PID: 1}, Seq: 1}})
	clk.now = 18 * time.Second
	rm.CheckLiveness()
	if rm.DomainsEvicted != 0 || rm.Domains() != 1 {
		t.Errorf("DomainsEvicted = %d, Domains = %d; want 0/1 (the live domain beat at 12s)",
			rm.DomainsEvicted, rm.Domains())
	}
}
