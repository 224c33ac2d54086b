package manager

import (
	"cmp"
	"slices"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Every manager tier is the same machine stacked into a hierarchy: host
// managers under a domain manager, domain managers under a region
// manager, processes under a host manager. Each keeps a roster of the
// children that register with it and heartbeat, asks them questions that
// are retried once and then abandoned, relays policy deltas down and
// hands telemetry summaries to a sink. This file holds that machine once;
// hostmanager.go, domainmanager.go and region.go add each tier's Locate
// step (a rule set; a rule set plus fan-out aggregation; saturation and
// load thresholds).

// Trace tier depths of the management hierarchy.
const (
	TierHost   = 1
	TierDomain = 2
	TierRegion = 3
)

// Liveness arms a manager's failure detection on the injected clock: a
// child silent for longer than Timeout is evicted from the roster, and a
// question unanswered for longer than Timeout is asked once more, then
// abandoned. The zero value leaves both sweeps off, so fault-free
// simulations schedule nothing extra.
type Liveness struct {
	Clock   telemetry.Clock
	Timeout time.Duration
}

// node is the state and plumbing every manager tier shares.
type node struct {
	addr      string
	send      Send
	component string // event-log component: "hostmanager", "domainmanager", "regionmanager"
	live      Liveness
	nextRef   int // correlation refs of the questions this node asks
	tracer    *telemetry.Tracer
	// evlog records the decisions the node otherwise makes silently
	// (adoptions, evictions, retries, timeouts). Nil is free.
	evlog *eventlog.Logger
	// sink receives inbound telemetry summaries; nil drops them.
	sink func(msg.TelemetrySummary)
}

// Addr returns the manager's management address.
func (n *node) Addr() string { return n.addr }

func (n *node) now() time.Duration {
	if n.live.Clock == nil {
		return 0
	}
	return n.live.Clock()
}

// sweeping reports whether the liveness sweeps are armed.
func (n *node) sweeping() bool { return n.live.Clock != nil && n.live.Timeout > 0 }

// newRef mints the next correlation ref, "<prefix><n>".
func (n *node) newRef(prefix string) string {
	n.nextRef++
	return spanDetail(prefix, n.nextRef, false, "")
}

// registerChild registers the sender of a Register under its identity's
// host name (its address when it sent none), binds the child to the
// sender's address and acks it. A message without a sender cannot be
// answered and is ignored.
func registerChild[V any](n *node, r *roster[string, V], id msg.Identity, from string) {
	if from == "" {
		return
	}
	name := id.Host
	if name == "" {
		name = from
	}
	v, fresh := r.adopt(name, n.now())
	if fresh {
		n.evlog.Event(eventlog.Debug, n.component, r.kind+"_adopted", eventlog.Str(r.kind, name))
	}
	r.bind(name, v, from)
	_ = n.send(from, msg.Message{From: n.addr, Body: msg.Ack{Ref: "register", OK: true}})
}

// heartbeatChild refreshes the child that sent hb. A beat from a child
// the roster does not know re-adopts it: the self-healing path after this
// manager restarted, or evicted a child that was merely partitioned.
func heartbeatChild[V any](n *node, r *roster[string, V], hb msg.Heartbeat, from string) {
	if r.contact(hb.ID.Host, n.now()) != nil || from == "" {
		return
	}
	n.evlog.Event(eventlog.Info, n.component, r.kind+"_readopted", eventlog.Str(r.kind, hb.ID.Host))
	registerChild(n, r, hb.ID, from)
}

// relay forwards a policy delta, trace context intact, to every address
// in to, in order, and returns how many copies went out.
func (n *node) relay(m msg.Message, to []string) uint64 {
	for _, addr := range to {
		_ = n.send(addr, msg.Message{From: n.addr, Trace: m.Trace, Body: m.Body})
	}
	if len(to) > 0 {
		n.evlog.EventCtx(m.Trace, eventlog.Debug, n.component, "policy_relay",
			eventlog.Int("agents", len(to)))
	}
	return uint64(len(to))
}

// summary hands an inbound telemetry summary to the sink, if any.
func (n *node) summary(ts msg.TelemetrySummary) {
	if n.sink != nil {
		n.sink(ts)
	}
}

// roster is a tier's registered children: a process by PID at the host,
// a host manager by host name at the domain, a domain manager by domain
// name at the region. It keeps registration order and each child's last
// contact; re-adopting a known child refreshes it and keeps its state.
type roster[K cmp.Ordered, V any] struct {
	kind    string // what a child is, naming its event-log codes: "agent", "host", "domain"
	timeout time.Duration
	kids    map[K]*child[V]
	order   []K

	// bind points an adopted child at the address it registered from
	// (rosters of managers only; processes do not register).
	bind func(k K, v *V, addr string)

	evicted *uint64            // the owning manager's eviction statistic
	metric  *telemetry.Counter // its registry counter; nil without a registry
	// describe returns the fields of an eviction's event-log record;
	// onEvict then does the tier's own cleanup.
	describe func(k K, v *V, silent time.Duration) []eventlog.Field
	onEvict  func(k K, v *V)
}

type child[V any] struct {
	val  V
	seen time.Duration
}

// adopt registers k as seen at now — or refreshes it, keeping its state,
// when it is known — and reports whether it was new.
func (r *roster[K, V]) adopt(k K, now time.Duration) (v *V, fresh bool) {
	c, ok := r.kids[k]
	if !ok {
		if r.kids == nil {
			r.kids = make(map[K]*child[V])
		}
		c = &child[V]{}
		r.kids[k] = c
		r.order = append(r.order, k)
	}
	c.seen = now
	return &c.val, !ok
}

// contact refreshes a known child's last contact and returns it. Contact
// from a child the roster does not know is a no-op returning nil.
func (r *roster[K, V]) contact(k K, now time.Duration) *V {
	c := r.kids[k]
	if c == nil {
		return nil
	}
	c.seen = now
	return &c.val
}

// get returns a known child without counting it as contact, or nil.
func (r *roster[K, V]) get(k K) *V {
	if c := r.kids[k]; c != nil {
		return &c.val
	}
	return nil
}

func (r *roster[K, V]) len() int { return len(r.order) }

// sweep evicts every child silent for longer than the timeout, in sorted
// key order so simulated runs stay deterministic: each eviction bumps the
// statistic and the counter, writes a "<kind>_evicted" record and runs the
// tier's hook. It returns how many children were evicted.
func (r *roster[K, V]) sweep(n *node, now time.Duration) int {
	var stale []K
	for k, c := range r.kids {
		if now-c.seen > r.timeout {
			stale = append(stale, k)
		}
	}
	slices.Sort(stale)
	for _, k := range stale {
		c := r.kids[k]
		delete(r.kids, k)
		i := slices.Index(r.order, k)
		r.order = slices.Delete(r.order, i, i+1)
		*r.evicted++
		r.metric.Inc()
		n.evlog.Event(eventlog.Warn, n.component, r.kind+"_evicted", r.describe(k, &c.val, now-c.seen)...)
		r.onEvict(k, &c.val)
	}
	return len(stale)
}

// request is one question a tier asked and awaits the answer to.
type request[V any] struct {
	val     V
	at      time.Duration // when it was asked, or asked again
	retried bool
}

// requests maps a correlation ref to its open request: the domain's
// localization episodes ("e" refs) and fan-outs ("f"), the region's
// probes ("r").
type requests[V any] map[string]*request[V]

// open records a question asked at now under ref and returns its state.
func (t requests[V]) open(ref string, v V, now time.Duration) *V {
	q := &request[V]{val: v, at: now}
	t[ref] = q
	return &q.val
}

// get returns the open request for ref, or nil.
func (t requests[V]) get(ref string) *V {
	if q := t[ref]; q != nil {
		return &q.val
	}
	return nil
}

// sweep handles every request unanswered for longer than timeout, in
// sorted ref order: the first time it is asked again (retry), the second
// time it is closed and then handed to abandon.
func (t requests[V]) sweep(now, timeout time.Duration, retry, abandon func(ref string, v *V)) (retried, abandoned int) {
	var due []string
	for ref, q := range t {
		if now-q.at > timeout {
			due = append(due, ref)
		}
	}
	slices.Sort(due)
	for _, ref := range due {
		q := t[ref]
		if !q.retried {
			q.retried, q.at = true, now
			retry(ref, &q.val)
			retried++
			continue
		}
		delete(t, ref)
		abandon(ref, &q.val)
		abandoned++
	}
	return retried, abandoned
}
