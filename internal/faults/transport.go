package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// ErrCrashed is the cause inside the *msg.SendError returned for sends
// to a process a crash rule has taken down.
var ErrCrashed = errors.New("faults: target crashed")

// reorderFlush bounds how long a reordered message is held when no
// later message overtakes it.
const reorderFlush = 50 * time.Millisecond

// Transport wraps a msg.Transport and applies a fault Plan to every
// Send. It implements msg.Transport itself, so the manager stack runs
// unmodified over it — on the sim Bus and the live NetTransport alike.
//
// Timers (delayed and duplicated deliveries, reorder flushes) run
// through the injected after function: the simulator's After in sim
// mode (faults stay on the virtual clock and deterministic), and
// time.AfterFunc when nil.
type Transport struct {
	inner msg.Transport
	clock telemetry.Clock
	after func(time.Duration, func())

	// OnSever, when set, is invoked by a firing sever rule — wire it to
	// NetTransport.SeverConns so reconnect logic gets exercised. The
	// sim Bus has no connections; sever is a no-op there.
	OnSever func() int

	mu       sync.Mutex
	plan     *Plan
	rng      *rand.Rand
	counts   map[string]uint64
	held     *heldSend
	disabled bool

	counters map[string]*telemetry.Counter // by kind; nil without a registry
	tracer   *telemetry.Tracer
	evlog    *eventlog.Logger
}

type heldSend struct {
	to string
	m  msg.Message
}

var _ msg.Transport = (*Transport)(nil)

// New wraps inner with the plan. clock supplies the time rule windows
// are evaluated against; after schedules deferred deliveries (nil for
// wall-clock time.AfterFunc). kit's registry gets the per-kind
// injection counters "faults.injected.<kind>", one for every fault kind;
// its tracer a "fault" span whenever an injection hits a message that
// belongs to an open episode; its event log every injection (component
// "faults").
func New(inner msg.Transport, plan *Plan, clock telemetry.Clock, after func(time.Duration, func()), kit obs.Kit) *Transport {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	if after == nil {
		after = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	f := &Transport{
		inner:  inner,
		clock:  clock,
		after:  after,
		plan:   plan,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		counts: make(map[string]uint64),
		tracer: kit.Tracer,
		evlog:  kit.Log,
	}
	if kit.Metrics != nil {
		f.counters = make(map[string]*telemetry.Counter, len(kinds))
		for _, k := range kinds {
			f.counters[k] = kit.Metrics.Counter("faults.injected." + k)
		}
	}
	return f
}

// Counts returns a copy of the per-kind injection counts.
func (f *Transport) Counts() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// String renders the counts sorted by kind, for logs and test output.
func (f *Transport) String() string {
	c := f.Counts()
	kinds := make([]string, 0, len(c))
	for k := range c {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}

// Clear stops all further injection (Sends pass straight through) and
// flushes any held message. The soak harness calls it before its drain
// phase so every open episode gets a fault-free path to recovery.
func (f *Transport) Clear() {
	f.mu.Lock()
	f.disabled = true
	held := f.held
	f.held = nil
	f.mu.Unlock()
	if held != nil {
		_ = f.inner.Send(held.to, held.m)
	}
}

// Bind, Unbind and Bound delegate to the wrapped transport.
func (f *Transport) Bind(addr, host string, h msg.BusHandler) { f.inner.Bind(addr, host, h) }

// Unbind delegates to the wrapped transport.
func (f *Transport) Unbind(addr string) { f.inner.Unbind(addr) }

// Bound delegates to the wrapped transport.
func (f *Transport) Bound(addr string) bool { return f.inner.Bound(addr) }

// count records one injection of kind. Caller holds mu.
func (f *Transport) count(kind string) {
	f.counts[kind]++
	f.counters[kind].Inc()
}

// annotate records one injection on the observability sinks: a
// structured event-log record (code = fault kind, carrying the rule's
// name and the message's trace context), and a fault span on the
// episode the message belongs to, when tracing is on and the message
// identifies one. Caller holds mu; both sinks take their own locks,
// which is safe — neither calls back.
func (f *Transport) annotate(r *Rule, kind string, m msg.Message, detail string) {
	f.evlog.EventCtx(m.Trace, eventlog.Info, "faults", kind,
		eventlog.Str("rule", r.Name), eventlog.Str("detail", detail))
	if f.tracer == nil {
		return
	}
	subject, policy := subjectOf(m)
	if subject == "" {
		return
	}
	f.tracer.EventCtx(m.Trace, subject, policy, "faults", telemetry.StageFault, detail)
}

// subjectOf extracts the (subject, policy) an episode is keyed by from
// message bodies that carry one.
func subjectOf(m msg.Message) (subject, policy string) {
	switch b := m.Body.(type) {
	case msg.Violation:
		return b.ID.Address(), b.Policy
	case msg.Alarm:
		return b.ID.Address(), b.Policy
	}
	return "", ""
}

// Send applies the plan's rules in order; the first message-level rule
// that fires decides the message's fate. Crash and partition rules are
// stateful (they hold for their window); sever rules trip OnSever and
// let the message through. Messages that fail msg.Validate pass
// straight to the wrapped transport so its drop accounting and typed
// errors stay authoritative.
func (f *Transport) Send(to string, m msg.Message) error {
	if err := msg.Validate(m); err != nil {
		return f.inner.Send(to, m)
	}
	now := f.clock()
	tag, _ := msg.TypeTag(m.Body)

	f.mu.Lock()
	if f.disabled || f.plan == nil {
		f.mu.Unlock()
		return f.inner.Send(to, m)
	}
	for i := range f.plan.Rules {
		r := &f.plan.Rules[i]
		if !r.active(now) || !r.matchesType(tag) {
			continue
		}
		if r.From != "" && !strings.HasPrefix(m.From, r.From) {
			continue
		}
		if r.To != "" && !strings.HasPrefix(to, r.To) {
			continue
		}
		switch r.Kind {
		case KindCrash:
			if strings.HasPrefix(to, r.Target) {
				f.count(KindCrash)
				f.annotate(r, KindCrash, m, "crash: "+r.Target+" down, send to it failed")
				f.mu.Unlock()
				return &msg.SendError{To: to, Kind: msg.ErrDialFailed, Err: ErrCrashed}
			}
			if strings.HasPrefix(m.From, r.Target) {
				f.count(KindCrash)
				f.annotate(r, KindCrash, m, "crash: "+r.Target+" down, its send lost")
				f.mu.Unlock()
				return nil
			}
		case KindPartition:
			toIn := hostOf(to) == r.Target
			fromIn := m.From != "" && hostOf(m.From) == r.Target
			if toIn != fromIn { // message crosses the partition
				f.count(KindPartition)
				f.annotate(r, KindPartition, m, "partition: "+r.Target+" unreachable, message lost")
				f.mu.Unlock()
				return nil
			}
		case KindDrop:
			if f.pass(r) {
				continue
			}
			f.count(KindDrop)
			f.annotate(r, KindDrop, m, "drop: "+tag+" to "+to+" lost")
			f.mu.Unlock()
			return nil
		case KindDelay:
			if f.pass(r) {
				continue
			}
			d := time.Duration(r.Delay)
			if r.Jitter > 0 {
				d += time.Duration(f.rng.Int63n(int64(r.Jitter)))
			}
			f.count(KindDelay)
			f.annotate(r, KindDelay, m, "delay: "+tag+" to "+to+" held "+d.String())
			f.mu.Unlock()
			f.after(d, func() { _ = f.inner.Send(to, m) })
			return nil
		case KindDuplicate:
			if f.pass(r) {
				continue
			}
			d := time.Duration(r.Delay)
			if d <= 0 {
				d = time.Millisecond
			}
			if r.Jitter > 0 {
				d += time.Duration(f.rng.Int63n(int64(r.Jitter)))
			}
			f.count(KindDuplicate)
			f.annotate(r, KindDuplicate, m, "duplicate: "+tag+" to "+to+" sent twice")
			f.mu.Unlock()
			f.after(d, func() { _ = f.inner.Send(to, m) })
			return f.inner.Send(to, m)
		case KindReorder:
			if f.pass(r) || f.held != nil {
				continue
			}
			f.count(KindReorder)
			f.annotate(r, KindReorder, m, "reorder: "+tag+" to "+to+" overtaken")
			h := &heldSend{to: to, m: m}
			f.held = h
			f.mu.Unlock()
			// Flush even if no later message overtakes it.
			f.after(reorderFlush, func() { f.flushHeld(h) })
			return nil
		case KindSever:
			if f.pass(r) {
				continue
			}
			f.count(KindSever)
			f.annotate(r, KindSever, m, "sever: "+tag+" to "+to+" triggered reconnect")
			hook := f.OnSever
			f.mu.Unlock()
			if hook != nil {
				hook()
			}
			return f.sendAfterHeld(to, m)
		}
	}
	f.mu.Unlock()
	return f.sendAfterHeld(to, m)
}

// pass draws the rule's probability; true means the rule does not fire
// this time. Caller holds mu.
func (f *Transport) pass(r *Rule) bool {
	return r.Prob > 0 && r.Prob < 1 && f.rng.Float64() >= r.Prob
}

// sendAfterHeld delivers m and then any held (reordered) message — the
// overtake that reordering promised.
func (f *Transport) sendAfterHeld(to string, m msg.Message) error {
	err := f.inner.Send(to, m)
	f.mu.Lock()
	held := f.held
	f.held = nil
	f.mu.Unlock()
	if held != nil {
		_ = f.inner.Send(held.to, held.m)
	}
	return err
}

// flushHeld delivers a specific held message if it is still pending.
func (f *Transport) flushHeld(h *heldSend) {
	f.mu.Lock()
	if f.held != h {
		f.mu.Unlock()
		return
	}
	f.held = nil
	f.mu.Unlock()
	_ = f.inner.Send(h.to, h.m)
}
