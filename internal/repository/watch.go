package repository

import (
	"fmt"
	"sort"
	"sync"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Hub is the watch/notify side of the repository: components that hold
// cached policy state (domain managers, policy agents) subscribe, and
// every policy change is pushed to them as a msg.PolicyDelta instead of
// waiting for the next registration to observe it. The hub owns the
// generation counter: deltas it announces carry strictly increasing
// generation numbers, and per executable each delta's Prev field names
// the previous generation announced for that executable, so a cache can
// detect both stale deltas (Generation <= cached) and gaps (Prev !=
// cached, meaning a delta was lost and a full re-pull is needed).
//
// The hub deliberately knows nothing about canary policy or rollout
// state — that is the Controller's job. It is the ordered, counted
// notification fan-out.
type Hub struct {
	mu   sync.Mutex
	addr string
	send msg.SendFunc

	gen    uint64            // last generation announced, hub-wide
	exeGen map[string]uint64 // executable -> last generation announced

	subs  map[string]bool
	order []string // subscriber addresses, sorted for deterministic fan-out

	mSent   *telemetry.Counter // repo.hub.deltas_sent
	mFailed *telemetry.Counter // repo.hub.notify_failures

	// evlog, when set, records announcements and notify failures as
	// structured events (component "repository").
	evlog *eventlog.Logger
}

// NewHub creates a hub announcing deltas from addr over send.
func NewHub(addr string, send msg.SendFunc) *Hub {
	return &Hub{addr: addr, send: send, exeGen: make(map[string]uint64), subs: make(map[string]bool)}
}

// SetTelemetry attaches counters "repo.hub.deltas_sent" and
// "repo.hub.notify_failures" (sends the transport rejected).
func (h *Hub) SetTelemetry(reg *telemetry.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if reg == nil {
		h.mSent, h.mFailed = nil, nil
		return
	}
	h.mSent = reg.Counter("repo.hub.deltas_sent")
	h.mFailed = reg.Counter("repo.hub.notify_failures")
}

// SetEventLog attaches the structured event log announcements and
// notify failures are recorded on (component "repository"). Nil
// detaches.
func (h *Hub) SetEventLog(lg *eventlog.Logger) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.evlog = lg
}

// Subscribe adds management addresses to the notification list.
// Subscribing an address twice is a no-op.
func (h *Hub) Subscribe(addrs ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range addrs {
		if a == "" || h.subs[a] {
			continue
		}
		h.subs[a] = true
		h.order = append(h.order, a)
	}
	sort.Strings(h.order)
}

// Unsubscribe removes an address from the notification list.
func (h *Hub) Unsubscribe(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.subs[addr] {
		return
	}
	delete(h.subs, addr)
	for i, a := range h.order {
		if a == addr {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

// Subscribers returns the sorted subscriber addresses.
func (h *Hub) Subscribers() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// Generation returns the last generation announced for an executable
// (0 when none has been).
func (h *Hub) Generation(exe string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.exeGen[exe]
}

// Announce allocates the next generation number and pushes a
// PolicyDelta for the executable to every subscriber, in sorted address
// order so fan-out is deterministic. The delta's Prev is the previous
// generation announced for the executable, chaining the executable's
// deltas so caches can detect losses. An invalid delta (e.g. a canary
// scope without hosts) is rejected before any send and does not consume
// a generation. Send failures are counted and reported but do not stop
// the fan-out — the remaining subscribers still get the delta, and any
// subscriber that missed it will detect the gap on the next one.
//
// Generation allocation happens under the hub lock, but the sends do
// not: a slow or hung subscriber (a stalled TCP peer, say) must not
// block Subscribe, Generation or concurrent announcements. A subscriber
// that consequently observes two concurrent deltas out of order sees a
// stale generation (ignored) or a gap (full re-pull) — the same cases
// the cache protocol already handles for in-flight reordering.
func (h *Hub) Announce(exe, scope string, hosts []string, specs []msg.PolicySpec,
	reason string, trace telemetry.TraceContext) (uint64, error) {
	h.mu.Lock()
	// One message, its body boxed once, goes to every subscriber.
	m := msg.Message{From: h.addr, Trace: trace, Body: msg.PolicyDelta{
		Generation: h.gen + 1,
		Prev:       h.exeGen[exe],
		Executable: exe,
		Scope:      scope,
		Hosts:      hosts,
		Policies:   specs,
		Reason:     reason,
	}}
	if err := msg.Validate(m); err != nil {
		h.mu.Unlock()
		return 0, err
	}
	h.gen++
	h.exeGen[exe] = h.gen
	gen := h.gen
	subs := make([]string, len(h.order))
	copy(subs, h.order)
	mSent, mFailed := h.mSent, h.mFailed // counters are atomic
	evlog := h.evlog                     // nil-safe outside the lock
	h.mu.Unlock()

	evlog.EventCtx(trace, eventlog.Info, "repository", "delta_announced",
		eventlog.Str("executable", exe), eventlog.Str("scope", scope),
		eventlog.Str("reason", reason),
		eventlog.Int("generation", int(gen)), eventlog.Int("subscribers", len(subs)))
	var firstErr error
	failed := 0
	for _, sub := range subs {
		err := h.send(sub, m)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			if mFailed != nil {
				mFailed.Inc()
			}
			evlog.EventCtx(trace, eventlog.Warn, "repository", "notify_failure",
				eventlog.Str("subscriber", sub), eventlog.Str("executable", exe),
				eventlog.Int("generation", int(gen)), eventlog.Str("error", err.Error()))
			continue
		}
		if mSent != nil {
			mSent.Inc()
		}
	}
	if firstErr != nil {
		return gen, fmt.Errorf("repository: %d of %d delta notifications failed: %w",
			failed, len(subs), firstErr)
	}
	return gen, nil
}
