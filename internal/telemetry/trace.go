package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Stage names used by the framework's spans. The set is open — Event
// accepts any stage string — but the canonical lifecycle is:
//
//	violation  coordinator: policy expression went false
//	notify     coordinator: violation report sent to the host manager
//	diagnose   host manager: inference episode over the report
//	adapt      resource manager action (boost-cpu, adjust-memory, ...)
//	escalate   host manager: alarm forwarded to the domain manager
//	locate     domain manager: cross-host diagnosis outcome
//	directive  corrective directive pushed to a host manager / process
//	recovered  coordinator: policy expression true again
const (
	StageViolation = "violation"
	StageNotify    = "notify"
	StageDiagnose  = "diagnose"
	StageAdapt     = "adapt"
	StageEscalate  = "escalate"
	StageLocate    = "locate"
	StageDirective = "directive"
	StageRecovered = "recovered"
	// StageFault marks an injected fault hitting a message of this
	// episode (fault-injection runs only).
	StageFault = "fault"
	// StageAbandoned closes an episode that cannot recover — its
	// process was evicted as dead, or the diagnosing manager gave up —
	// with the reason in the span detail. Abandonment is the explicit
	// alternative to a silent stall.
	StageAbandoned = "abandoned"
	// StageSuperseded closes a shell trace (see Trace.Remote): the
	// subject's next episode arrived, so the remote tracer ended this one.
	StageSuperseded = "superseded"
)

// TraceContext identifies a position in a violation trace: the trace and
// the span that caused whatever carries the context. It rides on
// msg.Message envelopes so management components in other processes can
// attach their spans to the originating violation's causal tree. The
// zero value is "no context" (Valid reports false) and marshals to
// nothing on the wire.
type TraceContext struct {
	TraceID string `json:"trace_id"`
	Span    int    `json:"span"` // parent span ID within the trace
}

// Valid reports whether the context references a trace.
func (c TraceContext) Valid() bool { return c.TraceID != "" }

// Span is one step of a violation's lifecycle. ID is the span's number
// within its trace (1 is the opening violation span); Parent is the ID
// of the causing span (0 when unknown — e.g. events recorded through the
// context-free Event API). Src names the emitting component
// ("coordinator", "hostmanager", "cpu-manager", ...).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Src    string        `json:"src,omitempty"`
	At     time.Duration `json:"at_ns"` // clock time the step happened
	Stage  string        `json:"stage"`
	Detail string        `json:"detail,omitempty"`
	// Tier records the management-hierarchy depth of the emitting
	// component when known (1 = host, 2 = domain, 3 = region). Zero —
	// the flat-topology default — is omitted everywhere it is rendered,
	// so tier annotations never perturb flat-topology output.
	Tier int `json:"tier,omitempty"`
}

// Explanation records why one inference-engine rule fired during a
// violation episode: which facts matched, what the engine asserted,
// retracted and called as a result. It is the trace-attached form of a
// rules.Firing — the answer to the paper's local-vs-remote diagnosis
// question, kept with the violation it explains.
type Explanation struct {
	At      time.Duration `json:"at_ns"`
	Span    int           `json:"span"` // diagnosis span the firing belongs to
	Engine  string        `json:"engine"`
	Rule    string        `json:"rule"`
	RuleSet string        `json:"rule_set,omitempty"` // provenance: which stored rule set defined the rule

	Salience  int               `json:"salience,omitempty"`
	Bindings  map[string]string `json:"bindings,omitempty"`
	Matched   []string          `json:"matched,omitempty"`
	Asserted  []string          `json:"asserted,omitempty"`
	Retracted []string          `json:"retracted,omitempty"`
	Called    []string          `json:"called,omitempty"`
}

// Trace is the causal record of one violation episode: from the instant
// a policy's expression went false to the instant it evaluated true
// again, with every management step between.
type Trace struct {
	ID      string        `json:"id"` // globally unique: subject "#" sequence
	Subject string        `json:"subject"`
	Policy  string        `json:"policy"`
	Start   time.Duration `json:"start_ns"`
	Spans   []Span        `json:"spans"`
	// Explanations are rule-firing records attached by inference engines
	// that diagnosed this episode.
	Explanations []Explanation `json:"explanations,omitempty"`
	// End and Recovered are set when the policy evaluated true again. A
	// trace that never recovers exports with Recovered false.
	End       time.Duration `json:"end_ns"`
	Recovered bool          `json:"recovered"`
	// Abandoned is set when the episode was closed without recovering:
	// the subject died or management explicitly gave up. The closing
	// "abandoned" span's detail records why.
	Abandoned bool `json:"abandoned,omitempty"`
	// Remote marks a shell trace: the local half of an episode that
	// another process's tracer opened and will resolve. This tracer never
	// sees that end; it closes the shell, neither recovered nor abandoned,
	// with a "superseded" span when the same (subject, policy) arrives
	// under a new trace ID.
	Remote bool `json:"remote,omitempty"`

	nextSpan int // last span ID handed out
	// spans0 backs Spans for the usual episode — violation, notify,
	// recovered at the coordinator; diagnose, one action, superseded at a
	// manager — so a trace and its spans are one allocation.
	spans0 [3]Span
}

// newTrace returns an open trace with room for the usual episode's spans.
func newTrace(id, subject, policy string, start time.Duration) *Trace {
	t := &Trace{ID: id, Subject: subject, Policy: policy, Start: start}
	t.Spans = t.spans0[:0]
	return t
}

// Clone returns a deep copy of the trace. Only safe to call where the
// original cannot be mutated concurrently (the tracer clones under its
// own lock in TracesSnapshot).
func (t *Trace) Clone() *Trace {
	c := *t
	c.Spans = append([]Span(nil), t.Spans...)
	c.Explanations = append([]Explanation(nil), t.Explanations...)
	return &c
}

// TimeToRecovery returns how long the violation lasted; ok is false for
// a still-open trace.
func (t *Trace) TimeToRecovery() (time.Duration, bool) {
	if !t.Recovered {
		return 0, false
	}
	return t.End - t.Start, true
}

// DefaultMaxTraces bounds retained completed traces unless SetRetention
// chooses otherwise. Past the cap the OLDEST completed episode is
// evicted — a long-lived live process keeps its most recent history,
// which is the history an operator debugging it needs — and the
// eviction is counted.
const DefaultMaxTraces = 4096

// Tracer assembles violation traces. One violation per (subject, policy)
// pair may be open at a time: a repeated violation report while open is
// recorded as a span of the existing trace rather than a new trace.
// Safe for concurrent use.
type Tracer struct {
	clock Clock

	mu     sync.Mutex
	seq    uint64
	active map[traceKey]*Trace // (subject, policy) -> open trace
	byID   map[string]*Trace   // trace ID -> open trace (same values)
	// done holds retained completed traces. Below the retention cap it
	// is a plain oldest-first slice; at the cap it becomes a ring with
	// doneStart indexing the oldest episode, so eviction is one pointer
	// store instead of shifting the whole slice per completion.
	done      []*Trace
	doneStart int
	maxDone   int // retention cap on done; 0 = unbounded
	evicted   uint64

	// Tail-based sampling (off unless SetSampling arms it): recoveries
	// faster than slowTTR are kept one in sampleEvery; abandoned episodes
	// and slow recoveries are always kept.
	sampleEvery     int
	slowTTR         time.Duration
	fastSeen        uint64
	sampledOut      uint64 // traces dropped by sampling
	sampledOutSpans uint64 // spans those traces carried

	// Retention counters; nil until SetMetrics.
	evictedC *Counter
	sampledC *Counter
}

// NewTracer creates a tracer on the given clock.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Tracer{clock: clock, maxDone: DefaultMaxTraces,
		active: make(map[traceKey]*Trace), byID: make(map[string]*Trace)}
}

// SetRetention caps retained completed traces at n, evicting oldest
// first; n <= 0 opts in to unbounded retention (every completed episode
// kept for the life of the process).
func (tr *Tracer) SetRetention(n int) {
	tr.mu.Lock()
	if n < 0 {
		n = 0
	}
	tr.maxDone = n
	tr.unrollLocked() // future appends assume a flat oldest-first slice
	tr.mu.Unlock()
}

// SetSampling arms tail-based trace sampling: a recovery with
// time-to-recovery under slow is kept one in every n completions (the
// rest are dropped whole and their spans counted in
// telemetry.traces.sampled_out). Episodes that end abandoned, and
// recoveries at or above slow, are ALWAYS kept — the violations worth
// debugging are never sampled away. n <= 1 keeps everything; slow <= 0
// subjects every recovery to sampling.
func (tr *Tracer) SetSampling(n int, slow time.Duration) {
	tr.mu.Lock()
	tr.sampleEvery = n
	tr.slowTTR = slow
	tr.mu.Unlock()
}

// SetMetrics registers the tracer's retention counters
// (telemetry.traces.evicted, telemetry.traces.sampled_out) on reg. A
// nil reg detaches them.
func (tr *Tracer) SetMetrics(reg *Registry) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.evictedC, tr.sampledC = nil, nil
	if reg != nil {
		tr.evictedC = reg.Counter("telemetry.traces.evicted")
		tr.sampledC = reg.Counter("telemetry.traces.sampled_out")
	}
}

// doneAppend retains a completed trace, evicting the oldest retained
// episode when the cap is reached. Caller holds mu.
func (tr *Tracer) doneAppend(t *Trace) {
	if tr.maxDone > 0 && len(tr.done) >= tr.maxDone {
		// Ring overwrite: done[doneStart] is the oldest retained
		// episode; replace it and advance the start.
		tr.done[tr.doneStart] = t
		tr.doneStart++
		if tr.doneStart == len(tr.done) {
			tr.doneStart = 0
		}
		tr.evicted++
		if tr.evictedC != nil {
			tr.evictedC.Inc()
		}
		return
	}
	tr.done = append(tr.done, t)
}

// unrollLocked rotates the completed-trace ring back to a flat
// oldest-first slice. Only a retention change needs it — the ring can
// only be wrapped while pinned at the cap, and appends only happen
// below it. Caller holds mu.
func (tr *Tracer) unrollLocked() {
	if tr.doneStart == 0 {
		return
	}
	flat := make([]*Trace, 0, len(tr.done))
	flat = append(flat, tr.done[tr.doneStart:]...)
	flat = append(flat, tr.done[:tr.doneStart]...)
	tr.done = flat
	tr.doneStart = 0
}

// sampleOut reports whether a just-recovered trace should be dropped by
// the sampling policy, doing the bookkeeping when it is. Caller holds mu.
func (tr *Tracer) sampleOut(t *Trace) bool {
	if tr.sampleEvery <= 1 {
		return false
	}
	if tr.slowTTR > 0 && t.End-t.Start >= tr.slowTTR {
		return false // slow recovery: always kept
	}
	seq := tr.fastSeen
	tr.fastSeen++
	if seq%uint64(tr.sampleEvery) == 0 {
		return false // the kept representative of this sampling stride
	}
	tr.sampledOut++
	tr.sampledOutSpans += uint64(len(t.Spans))
	if tr.sampledC != nil {
		tr.sampledC.Add(uint64(len(t.Spans)))
	}
	return true
}

// traceKey identifies the one trace that may be open per violation.
type traceKey struct{ subject, policy string }

// addSpan appends a span to t and returns its context. Caller holds mu.
func (tr *Tracer) addSpan(t *Trace, parent int, src, stage, detail string, at time.Duration) TraceContext {
	return tr.addSpanTier(t, parent, src, stage, detail, at, 0)
}

// addSpanTier is addSpan with the emitting component's management tier
// recorded on the span (0 = unknown/flat). Caller holds mu.
func (tr *Tracer) addSpanTier(t *Trace, parent int, src, stage, detail string, at time.Duration, tier int) TraceContext {
	t.nextSpan++
	t.Spans = append(t.Spans, Span{
		ID: t.nextSpan, Parent: parent, Src: src,
		At: at, Stage: stage, Detail: detail, Tier: tier,
	})
	return TraceContext{TraceID: t.ID, Span: t.nextSpan}
}

// Begin opens a trace for the (subject, policy) violation, recording the
// initial violation span emitted by src. If a trace is already open for
// the pair the call records a re-violation span on it instead. The
// returned context identifies the recorded span; pass it on outgoing
// messages so downstream managers extend the same causal tree.
func (tr *Tracer) Begin(subject, policy, src, detail string) TraceContext {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	key := traceKey{subject, policy}
	if t, open := tr.active[key]; open {
		// Re-violation while the episode is open: a child of the opening
		// violation span, not a new trace.
		return tr.addSpan(t, 1, src, StageViolation, detail, now)
	}
	tr.seq++
	var buf [128]byte // subject "#" sequence, rendered on the stack
	id := strconv.AppendUint(append(append(buf[:0], subject...), '#'), tr.seq, 10)
	t := newTrace(string(id), subject, policy, now)
	tr.active[key] = t
	tr.byID[t.ID] = t
	return tr.addSpan(t, 0, src, StageViolation, detail, now)
}

// lookup finds the open trace a context or (subject, policy) pair refers
// to. When ctx names a trace this tracer has never seen — a violation
// that originated in another process — a shell trace is opened so the
// local spans still attach to the right trace ID. A shell already open
// for the pair belongs to an earlier episode, which the remote tracer
// must have ended: it is closed into the retained ring first. Traces
// opened by Begin are never displaced. Caller holds mu.
func (tr *Tracer) lookup(ctx TraceContext, subject, policy string, at time.Duration) *Trace {
	if ctx.Valid() {
		if t, ok := tr.byID[ctx.TraceID]; ok {
			return t
		}
	}
	key := traceKey{subject, policy}
	t, open := tr.active[key]
	if open && !(t.Remote && ctx.Valid()) {
		return t
	}
	if !ctx.Valid() {
		return nil
	}
	if open {
		delete(tr.byID, t.ID)
		tr.addSpan(t, 0, "", StageSuperseded, "a later episode arrived under a new trace ID", at)
		t.End = at
		tr.doneAppend(t)
	}
	t = newTrace(ctx.TraceID, subject, policy, at)
	t.Remote = true
	tr.active[key] = t
	tr.byID[t.ID] = t
	return t
}

// EventCtx appends a span caused by ctx (as carried on the triggering
// message) to the violation trace it references, falling back to the
// open (subject, policy) trace when the message carried no context. It
// returns the new span's context for further propagation; the zero
// context when no trace is open (e.g. management actions for overshoot
// episodes, which are not violations).
func (tr *Tracer) EventCtx(ctx TraceContext, subject, policy, src, stage, detail string) TraceContext {
	return tr.EventCtxTier(ctx, subject, policy, src, stage, detail, 0)
}

// EventCtxTier is EventCtx with the emitting component's management
// tier recorded on the span (1 = host, 2 = domain, 3 = region).
// Hierarchical managers use it so exported traces carry the depth each
// step happened at; tier 0 is the flat-topology default and renders
// identically to spans recorded before tiers existed.
func (tr *Tracer) EventCtxTier(ctx TraceContext, subject, policy, src, stage, detail string, tier int) TraceContext {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.lookup(ctx, subject, policy, now)
	if t == nil {
		return TraceContext{}
	}
	parent := 0
	if ctx.Valid() && ctx.TraceID == t.ID {
		parent = ctx.Span
	}
	return tr.addSpanTier(t, parent, src, stage, detail, now, tier)
}

// Event appends a span to the open trace for (subject, policy); it is a
// no-op when no trace is open. It is EventCtx without causal context:
// the span records Parent 0.
func (tr *Tracer) Event(subject, policy, stage, detail string) {
	tr.EventCtx(TraceContext{}, subject, policy, "", stage, detail)
}

// Context returns a context referencing the most recent span of the open
// (subject, policy) trace, or the zero context when none is open.
func (tr *Tracer) Context(subject, policy string) TraceContext {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, open := tr.active[traceKey{subject, policy}]
	if !open {
		return TraceContext{}
	}
	return TraceContext{TraceID: t.ID, Span: t.nextSpan}
}

// Explain attaches a rule-firing explanation to the trace ctx references
// (with the usual fallback to the open (subject, policy) trace). The
// explanation's Span is set from ctx so viewers can hang it under the
// diagnosis span that ran the engine. Dropped when no trace is open.
func (tr *Tracer) Explain(ctx TraceContext, subject, policy string, e Explanation) {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := tr.lookup(ctx, subject, policy, now)
	if t == nil {
		return
	}
	if e.At == 0 {
		e.At = now
	}
	if ctx.Valid() && ctx.TraceID == t.ID {
		e.Span = ctx.Span
	}
	t.Explanations = append(t.Explanations, e)
}

// Resolve closes the open trace for (subject, policy): the policy's
// expression evaluated true again. No-op when no trace is open.
func (tr *Tracer) Resolve(subject, policy string) {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	key := traceKey{subject, policy}
	t, open := tr.active[key]
	if !open {
		return
	}
	delete(tr.active, key)
	delete(tr.byID, t.ID)
	tr.addSpan(t, 1, "", StageRecovered, "", now)
	t.End = now
	t.Recovered = true
	if tr.sampleOut(t) {
		return
	}
	tr.doneAppend(t)
}

// closeLocked moves an open trace to done with a terminal span. Caller
// holds mu.
func (tr *Tracer) closeLocked(key traceKey, t *Trace, stage, src, detail string, at time.Duration) {
	delete(tr.active, key)
	delete(tr.byID, t.ID)
	tr.addSpan(t, 1, src, stage, detail, at)
	t.End = at
	tr.doneAppend(t)
}

// Abandon closes the open trace for (subject, policy) without recovery:
// the episode ends with an "abandoned" span whose detail is the reason.
// Reported false when no trace is open for the pair.
func (tr *Tracer) Abandon(subject, policy, src, reason string) bool {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	key := traceKey{subject, policy}
	t, open := tr.active[key]
	if !open {
		return false
	}
	t.Abandoned = true
	tr.closeLocked(key, t, StageAbandoned, src, reason, now)
	return true
}

// AbandonSubject abandons every open trace whose subject matches,
// returning how many it closed. A host manager evicting a dead process
// uses it to close all of the process's episodes in one call; traces
// are visited in sorted key order so the outcome is deterministic.
func (tr *Tracer) AbandonSubject(subject, src, reason string) int {
	now := tr.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	keys := make([]traceKey, 0, len(tr.active))
	for k := range tr.active {
		if k.subject == subject {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].policy < keys[j].policy })
	for _, k := range keys {
		t := tr.active[k]
		t.Abandoned = true
		tr.closeLocked(k, t, StageAbandoned, src, reason, now)
	}
	return len(keys)
}

// Abandoned returns how many completed traces ended abandoned.
func (tr *Tracer) Abandoned() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, t := range tr.done {
		if t.Abandoned {
			n++
		}
	}
	return n
}

// Traces returns completed traces in completion order followed by
// still-open traces ordered by (subject, policy) — a deterministic
// ordering for a deterministic simulation. The returned slice is a
// snapshot; the *Trace values of open traces may still gain spans.
func (tr *Tracer) Traces() []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Trace, 0, len(tr.done)+len(tr.active))
	out = append(out, tr.done[tr.doneStart:]...)
	out = append(out, tr.done[:tr.doneStart]...)
	open := make([]*Trace, 0, len(tr.active))
	for _, t := range tr.active {
		open = append(open, t)
	}
	sort.Slice(open, func(i, j int) bool {
		if open[i].Subject != open[j].Subject {
			return open[i].Subject < open[j].Subject
		}
		return open[i].Policy < open[j].Policy
	})
	return append(out, open...)
}

// TracesSnapshot returns deep copies of every trace in the same order as
// Traces. Unlike Traces, the result is immune to concurrent mutation —
// open traces keep gaining spans after the call, but only the originals
// do. Concurrent readers (HTTP scrapes, wall-clock samplers) must use
// this; single-threaded simulation code may keep using Traces.
func (tr *Tracer) TracesSnapshot() []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Trace, 0, len(tr.done)+len(tr.active))
	for _, t := range tr.done[tr.doneStart:] {
		out = append(out, t.Clone())
	}
	for _, t := range tr.done[:tr.doneStart] {
		out = append(out, t.Clone())
	}
	open := make([]*Trace, 0, len(tr.active))
	for _, t := range tr.active {
		open = append(open, t.Clone())
	}
	sort.Slice(open, func(i, j int) bool {
		if open[i].Subject != open[j].Subject {
			return open[i].Subject < open[j].Subject
		}
		return open[i].Policy < open[j].Policy
	})
	return append(out, open...)
}

// Completed returns how many traces have recovered.
func (tr *Tracer) Completed() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.done)
}

// Open returns how many traces are still unresolved.
func (tr *Tracer) Open() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

// Evicted returns how many completed traces the retention cap pushed
// out (oldest-first).
func (tr *Tracer) Evicted() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.evicted
}

// Dropped is a legacy alias for Evicted.
func (tr *Tracer) Dropped() uint64 { return tr.Evicted() }

// SampledOut returns how many completed traces the sampling policy
// discarded.
func (tr *Tracer) SampledOut() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sampledOut
}
