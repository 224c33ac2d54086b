package repository

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/telemetry"
)

// A tighter jitter band than example1Src — the canary payload the
// decision-table tests push.
const tighterJitterSrc = `
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.5)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate);
}
`

// rolloutHarness wires a Controller onto a manual clock, a captured
// delta stream, and stubbed compliance/host sources.
type rolloutHarness struct {
	t      *testing.T
	svc    *Service
	hub    *Hub
	ctl    *Controller
	tracer *telemetry.Tracer

	clock  time.Duration
	timers []timer
	deltas []msg.PolicyDelta
	comps  []telemetry.PolicyCompliance
	hosts  []string
}

type timer struct {
	at time.Duration
	fn func()
}

func newRolloutHarness(t *testing.T) *rolloutHarness {
	return newRolloutHarnessStore(t, nil)
}

// newRolloutHarnessStore lets a test interpose on the directory store
// (wrap receives the LocalStore and returns what the service uses).
func newRolloutHarnessStore(t *testing.T, wrap func(Store) Store) *rolloutHarness {
	t.Helper()
	h := &rolloutHarness{t: t, hosts: []string{"h-b", "h-a", "h-c", "h-d", "h-e"}}
	dir := NewDirectory(QoSSchema())
	var store Store = LocalStore{dir}
	if wrap != nil {
		store = wrap(store)
	}
	h.svc = newTestService(t, store)
	storeExample1(t, h.svc, "")
	h.hub = NewHub("/repo/hub", func(to string, m msg.Message) error {
		if d, ok := m.Body.(msg.PolicyDelta); ok {
			h.deltas = append(h.deltas, d)
		}
		return nil
	}, obs.Kit{})
	h.hub.Subscribe("/test/sub")
	clock := func() time.Duration { return h.clock }
	h.tracer = telemetry.NewTracer(clock)
	h.ctl = NewController(h.hub, h.svc, RolloutConfig{Bake: 30 * time.Second, Kit: obs.Kit{Tracer: h.tracer}})
	h.ctl.SetClock(clock, func(d time.Duration, fn func()) {
		h.timers = append(h.timers, timer{h.clock + d, fn})
	})
	h.ctl.SetComplianceSource(func() []telemetry.PolicyCompliance { return h.comps })
	h.ctl.SetHosts(func() []string { return h.hosts })
	return h
}

// advance moves the manual clock and fires every timer that came due.
func (h *rolloutHarness) advance(d time.Duration) {
	h.clock += d
	due := h.timers
	h.timers = nil
	for _, tm := range due {
		if tm.at <= h.clock {
			tm.fn()
		} else {
			h.timers = append(h.timers, tm)
		}
	}
}

// decisionTrace returns the completed rollout trace, failing the test
// when none exists.
func (h *rolloutHarness) decisionTrace() *telemetry.Trace {
	h.t.Helper()
	for _, tr := range h.tracer.Traces() {
		if tr.Policy == "rollout" && (tr.Recovered || tr.Abandoned) {
			return tr
		}
	}
	h.t.Fatal("no completed rollout trace")
	return nil
}

func (h *rolloutHarness) assertExplained(rule string) {
	h.t.Helper()
	tr := h.decisionTrace()
	for _, e := range tr.Explanations {
		if e.Engine == "rollout" && e.Rule == rule {
			return
		}
	}
	h.t.Fatalf("trace has no rollout explanation %q: %+v", rule, tr.Explanations)
}

func (h *rolloutHarness) assertSpanDetail(substr string) {
	h.t.Helper()
	tr := h.decisionTrace()
	for _, sp := range tr.Spans {
		if strings.Contains(sp.Detail, substr) {
			return
		}
	}
	h.t.Fatalf("no trace span detail contains %q", substr)
}

func (h *rolloutHarness) jitterBound() float64 {
	h.t.Helper()
	specs, err := h.svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
	if err != nil {
		h.t.Fatal(err)
	}
	for _, s := range specs {
		for _, c := range s.Conditions {
			if c.Attribute == "jitter_rate" {
				return c.Value
			}
		}
	}
	h.t.Fatal("no jitter_rate condition in repository truth")
	return 0
}

func TestRolloutPromoteOnCompliantBake(t *testing.T) {
	h := newRolloutHarness(t)
	st, err := h.ctl.Push(tighterJitterSrc, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != RolloutBaking || st.Generation != 1 {
		t.Fatalf("push status = %+v", st)
	}
	if len(st.CanaryHosts) != 1 || st.CanaryHosts[0] != "h-a" {
		t.Fatalf("cohort not the deterministic sorted head: %v", st.CanaryHosts)
	}
	if len(h.deltas) != 1 {
		t.Fatalf("got %d deltas after push", len(h.deltas))
	}
	d := h.deltas[0]
	if d.Scope != "canary" || d.Generation != 1 || d.Prev != 0 ||
		len(d.Hosts) != 1 || d.Hosts[0] != "h-a" {
		t.Fatalf("canary delta = %+v", d)
	}
	// The canary payload is the merged view: baseline with the new
	// policy replacing its namesake.
	if len(d.Policies) != 1 || d.Policies[0].Name != "NotifyQoSViolation" {
		t.Fatalf("canary payload = %+v", d.Policies)
	}
	// The repository itself must not carry the canary policy yet.
	if got := h.jitterBound(); got != 1.25 {
		t.Fatalf("repository truth changed before promote: jitter bound %v", got)
	}

	// Compliant bake: no burn anywhere.
	h.comps = []telemetry.PolicyCompliance{{Policy: "NotifyQoSViolation",
		FastCompliance: 1, SlowCompliance: 1}}
	h.advance(30 * time.Second)

	st, ok := h.ctl.Status()
	if !ok || st.State != RolloutPromoted {
		t.Fatalf("status after bake = %+v", st)
	}
	if st.Reason == "" || !strings.Contains(st.Reason, "compliant") {
		t.Fatalf("promote reason = %q", st.Reason)
	}
	if got := h.jitterBound(); got != 1.5 {
		t.Fatalf("promote did not persist the canary policy: jitter bound %v", got)
	}
	if len(h.deltas) != 2 {
		t.Fatalf("got %d deltas after promote", len(h.deltas))
	}
	fd := h.deltas[1]
	if fd.Scope != "fleet" || fd.Generation != 2 || fd.Prev != 1 {
		t.Fatalf("fleet delta = %+v", fd)
	}
	if h.decisionTrace().Abandoned || !h.decisionTrace().Recovered {
		t.Fatal("promote trace not resolved")
	}
	h.assertExplained("promote-on-compliant-bake")
	h.assertSpanDetail("bake window compliant")
	if hist := h.ctl.History(); len(hist) != 1 || hist[0].State != RolloutPromoted {
		t.Fatalf("history = %+v", hist)
	}
}

func TestRolloutRollbackOnBurnBreach(t *testing.T) {
	h := newRolloutHarness(t)
	if _, err := h.ctl.Push(tighterJitterSrc, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	// The canary burns error budget fast.
	h.comps = []telemetry.PolicyCompliance{{Policy: "NotifyQoSViolation",
		FastBurn: 3.5, SlowBurn: 0.4}}
	h.advance(30 * time.Second)

	st, _ := h.ctl.Status()
	if st.State != RolloutRolledBack {
		t.Fatalf("status = %+v", st)
	}
	if !strings.Contains(st.Reason, "burn-rate breach") {
		t.Fatalf("rollback reason = %q", st.Reason)
	}
	// Repository truth untouched; the rollback delta re-announces it.
	if got := h.jitterBound(); got != 1.25 {
		t.Fatalf("rollback mutated repository truth: jitter bound %v", got)
	}
	if len(h.deltas) != 2 {
		t.Fatalf("got %d deltas", len(h.deltas))
	}
	rd := h.deltas[1]
	if rd.Scope != "rollback" || rd.Generation != 2 || rd.Prev != 1 {
		t.Fatalf("rollback delta = %+v", rd)
	}
	if len(rd.Policies) != 1 {
		t.Fatalf("rollback payload = %+v", rd.Policies)
	}
	for _, c := range rd.Policies[0].Conditions {
		if c.Attribute == "jitter_rate" && c.Value != 1.25 {
			t.Fatalf("rollback payload carries canary value %v", c.Value)
		}
	}
	tr := h.decisionTrace()
	if !tr.Abandoned {
		t.Fatal("rollback trace not abandoned")
	}
	h.assertExplained("rollback-on-burn")
	h.assertSpanDetail("burn-rate breach")
}

func TestRolloutRollbackOnCanaryEviction(t *testing.T) {
	h := newRolloutHarness(t)
	if _, err := h.ctl.Push(tighterJitterSrc, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	// A host outside the cohort dying is not the canary's problem.
	h.ctl.HostEvicted("h-e")
	if st, _ := h.ctl.Status(); st.State != RolloutBaking {
		t.Fatalf("non-cohort eviction changed state: %+v", st)
	}
	// The canary host dying mid-bake makes the bake unjudgeable.
	h.ctl.HostEvicted("h-a")
	st, _ := h.ctl.Status()
	if st.State != RolloutRolledBack {
		t.Fatalf("status = %+v", st)
	}
	if !strings.Contains(st.Reason, "evicted mid-bake") {
		t.Fatalf("rollback reason = %q", st.Reason)
	}
	// The bake timer firing later must not double-decide.
	before := len(h.deltas)
	h.advance(30 * time.Second)
	if len(h.deltas) != before {
		t.Fatalf("stale bake timer announced %d more deltas", len(h.deltas)-before)
	}
	h.assertExplained("rollback-on-eviction")
	h.assertSpanDetail("evicted mid-bake")
}

func TestRolloutIdempotentRepush(t *testing.T) {
	h := newRolloutHarness(t)
	meta := PolicyMeta{Application: "VideoApplication", Executable: "mpeg_play"}
	st1, err := h.ctl.Push(tighterJitterSrc, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical re-push while baking: same generation, no delta.
	st2, err := h.ctl.Push(tighterJitterSrc, meta)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation != st1.Generation || st2.State != RolloutBaking {
		t.Fatalf("re-push status = %+v, first = %+v", st2, st1)
	}
	if len(h.deltas) != 1 {
		t.Fatalf("idempotent re-push announced a delta (%d total)", len(h.deltas))
	}
	// The decision cause is on the (still open) trace.
	var open *telemetry.Trace
	for _, tr := range h.tracer.Traces() {
		if tr.Policy == "rollout" {
			open = tr
		}
	}
	if open == nil {
		t.Fatal("no rollout trace")
	}
	found := false
	for _, sp := range open.Spans {
		if strings.Contains(sp.Detail, "idempotent re-push of generation 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("idempotent decision not traced: %+v", open.Spans)
	}
	explained := false
	for _, e := range open.Explanations {
		if e.Rule == "idempotent-repush" {
			explained = true
		}
	}
	if !explained {
		t.Fatalf("idempotent decision not explained: %+v", open.Explanations)
	}
	// A *different* policy while baking is refused.
	if _, err := h.ctl.Push(example1Src, meta); err == nil ||
		!strings.Contains(err.Error(), "still baking") {
		t.Fatalf("conflicting push error = %v", err)
	}
}

// faultyStore fails the next N Add calls — a transient directory-write
// failure hitting mid-promote.
type faultyStore struct {
	Store
	failNextAdds int
}

func (f *faultyStore) Add(e *Entry) error {
	if f.failNextAdds > 0 {
		f.failNextAdds--
		return errors.New("directory write refused")
	}
	return f.Store.Add(e)
}

// TestRolloutStoreFailureRollsBackUnchanged: a promote whose StorePolicy
// fails must leave the repository byte-identical to its pre-push state,
// so the rollback delta it announces really does carry unchanged truth
// (not a repository that silently lost the previous policy version).
func TestRolloutStoreFailureRollsBackUnchanged(t *testing.T) {
	var fs *faultyStore
	h := newRolloutHarnessStore(t, func(s Store) Store {
		fs = &faultyStore{Store: s}
		return fs
	})
	snapshot := func() string {
		entries, err := h.svc.store.Search(BaseDN, ScopeSub, nil)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, 0, len(entries))
		for _, e := range entries {
			lines = append(lines, e.String())
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	before := snapshot()

	if _, err := h.ctl.Push(tighterJitterSrc, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	h.comps = []telemetry.PolicyCompliance{{Policy: "NotifyQoSViolation",
		FastCompliance: 1, SlowCompliance: 1}}
	// The compliant bake tries to promote, but the policy entry's write
	// is refused; the restore writes then succeed again.
	fs.failNextAdds = 1
	h.advance(30 * time.Second)

	st, _ := h.ctl.Status()
	if st.State != RolloutRolledBack {
		t.Fatalf("status = %+v", st)
	}
	if !strings.Contains(st.Reason, "promote failed") {
		t.Fatalf("rollback reason = %q", st.Reason)
	}
	if after := snapshot(); after != before {
		t.Fatalf("failed promote changed repository truth:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if got := h.jitterBound(); got != 1.25 {
		t.Fatalf("jitter bound after failed promote = %v, want 1.25", got)
	}
	// The rollback delta re-announces the restored (pre-push) truth.
	if len(h.deltas) != 2 {
		t.Fatalf("got %d deltas", len(h.deltas))
	}
	rd := h.deltas[1]
	if rd.Scope != "rollback" {
		t.Fatalf("second delta = %+v", rd)
	}
	for _, c := range rd.Policies[0].Conditions {
		if c.Attribute == "jitter_rate" && c.Value != 1.25 {
			t.Fatalf("rollback payload carries canary value %v", c.Value)
		}
	}
	h.assertExplained("rollback-on-store-failure")
}

func TestRolloutPushValidation(t *testing.T) {
	h := newRolloutHarness(t)
	meta := PolicyMeta{Application: "VideoApplication", Executable: "mpeg_play"}
	if _, err := h.ctl.Push("not a policy", meta); err == nil {
		t.Fatal("unparseable policy accepted")
	}
	if _, err := h.ctl.Push(tighterJitterSrc, PolicyMeta{
		Application: "VideoApplication", Executable: "no_such_exe"}); err == nil {
		t.Fatal("unknown executable accepted")
	}
	h.hosts = nil
	if _, err := h.ctl.Push(tighterJitterSrc, meta); err == nil {
		t.Fatal("push with no hosts accepted")
	}
	if h.hub.Generation("mpeg_play") != 0 {
		t.Fatal("failed pushes consumed generations")
	}
	if len(h.deltas) != 0 {
		t.Fatalf("failed pushes announced %d deltas", len(h.deltas))
	}
}
