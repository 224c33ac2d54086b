package agent

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
)

const videoPolicy = `
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

func newAgent(t *testing.T) (*PolicyAgent, *[]msg.Message, *[]string) {
	t.Helper()
	a, _, sent, to := newAgentSvc(t, nil)
	return a, sent, to
}

// newAgentSvc is newAgent exposing the backing repository service; wrap,
// when non-nil, interposes on the directory store.
func newAgentSvc(t *testing.T, wrap func(repository.Store) repository.Store) (*PolicyAgent, *repository.Service, *[]msg.Message, *[]string) {
	t.Helper()
	dir := repository.NewDirectory(repository.QoSSchema())
	var store repository.Store = repository.LocalStore{Dir: dir}
	if wrap != nil {
		store = wrap(store)
	}
	svc := repository.NewService(store)
	if err := svc.DefineApplication("VideoApplication", "mpeg_play"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
		t.Fatal(err)
	}
	p, err := policy.ParseOne(videoPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.StorePolicy(p, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	var sent []msg.Message
	var to []string
	a := New("/agent", svc, func(addr string, m msg.Message) error {
		to = append(to, addr)
		sent = append(sent, m)
		return nil
	})
	return a, svc, &sent, &to
}

func register(id msg.Identity, sensors ...string) msg.Message {
	return msg.Message{From: id.Address() + "/qosl_coordinator",
		Body: msg.Register{ID: id, Sensors: sensors}}
}

func TestAgentDeliversPolicySet(t *testing.T) {
	a, sent, to := newAgent(t)
	id := msg.Identity{Host: "h", PID: 7, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(id, "fps_sensor", "jitter_sensor", "buffer_sensor"))
	if len(*sent) != 1 {
		t.Fatalf("sent %d messages", len(*sent))
	}
	if (*to)[0] != id.Address()+"/qosl_coordinator" {
		t.Errorf("replied to %q", (*to)[0])
	}
	ps := (*sent)[0].Body.(msg.PolicySet)
	if len(ps.Policies) != 1 || ps.Policies[0].Name != "NotifyQoSViolation" {
		t.Errorf("policy set = %+v", ps)
	}
	if a.Registrations != 1 {
		t.Errorf("registrations = %d", a.Registrations)
	}
}

func TestAgentFiltersPoliciesMissingSensors(t *testing.T) {
	a, sent, _ := newAgent(t)
	id := msg.Identity{Host: "h", PID: 7, Executable: "mpeg_play", Application: "VideoApplication"}
	// The process reports only the fps sensor: the policy also needs the
	// jitter sensor, so it cannot be enforced there.
	a.HandleMessage(register(id, "fps_sensor"))
	ps := (*sent)[0].Body.(msg.PolicySet)
	if len(ps.Policies) != 0 {
		t.Errorf("unenforceable policy delivered: %+v", ps.Policies)
	}
}

func TestAgentUnknownExecutableEmptySet(t *testing.T) {
	a, sent, _ := newAgent(t)
	id := msg.Identity{Host: "h", PID: 7, Executable: "ghost"}
	a.HandleMessage(register(id, "s"))
	// An executable with no stored policies gets an empty (but valid)
	// policy set: the lookup itself succeeded.
	ps := (*sent)[0].Body.(msg.PolicySet)
	if len(ps.Policies) != 0 {
		t.Errorf("policies for unknown executable: %+v", ps.Policies)
	}
	if a.Registrations != 1 || a.Failures != 0 {
		t.Errorf("registrations=%d failures=%d", a.Registrations, a.Failures)
	}
}

// brokenStore fails every search: the repository is unreachable, the
// situation the explicit-Nack path exists for.
type brokenStore struct{ repository.LocalStore }

func (brokenStore) Search(repository.DN, repository.Scope, repository.Filter) ([]*repository.Entry, error) {
	return nil, errors.New("repository unreachable")
}

func TestAgentNacksOnLookupFailure(t *testing.T) {
	svc := repository.NewService(brokenStore{})
	var sent []msg.Message
	var to []string
	a := New("/agent", svc, func(addr string, m msg.Message) error {
		to = append(to, addr)
		sent = append(sent, m)
		return nil
	})
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	a.SetTelemetry(reg)

	id := msg.Identity{Host: "h", PID: 7, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(id, "fps_sensor"))
	if len(sent) != 1 {
		t.Fatalf("sent %d messages", len(sent))
	}
	// The failed lookup must be answered with an explicit Nack — not a
	// PolicySet the coordinator would mistake for "no policies apply".
	n, ok := sent[0].Body.(msg.Nack)
	if !ok {
		t.Fatalf("reply = %T, want msg.Nack", sent[0].Body)
	}
	if n.Ref != "register" || !strings.Contains(n.Reason, "repository unreachable") {
		t.Errorf("nack = %+v", n)
	}
	if n.ID != id {
		t.Errorf("nack identity = %+v", n.ID)
	}
	if to[0] != id.Address()+"/qosl_coordinator" {
		t.Errorf("nack sent to %q", to[0])
	}
	if a.Registrations != 0 || a.Failures != 1 {
		t.Errorf("registrations=%d failures=%d", a.Registrations, a.Failures)
	}
	if v := reg.Counter("agent.failures").Value(); v != 1 {
		t.Errorf("agent.failures = %d", v)
	}
	if v := reg.Counter("agent.registrations").Value(); v != 0 {
		t.Errorf("agent.registrations = %d", v)
	}
}

func TestAgentIgnoresNonRegister(t *testing.T) {
	a, sent, _ := newAgent(t)
	a.HandleMessage(msg.Message{Body: msg.Ack{Ref: "x"}})
	if len(*sent) != 0 {
		t.Errorf("agent replied to a non-register message")
	}
}

// tightSpec is a canary payload differing from the stored policy in
// its jitter bound.
func tightSpec() msg.PolicySpec {
	return msg.PolicySpec{
		Name:       "NotifyQoSViolation",
		Connective: "and",
		Conditions: []msg.CondSpec{
			{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23},
			{Attribute: "frame_rate", Sensor: "fps_sensor", Op: "<", Value: 27},
			{Attribute: "jitter_rate", Sensor: "jitter_sensor", Op: "<", Value: 1.5},
		},
		Actions: []msg.ActionSpec{{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}}},
	}
}

func delta(gen, prev uint64, scope string, hosts []string, specs ...msg.PolicySpec) msg.Message {
	return msg.Message{From: "/repo/hub", Body: msg.PolicyDelta{
		Generation: gen, Prev: prev, Executable: "mpeg_play",
		Scope: scope, Hosts: hosts, Policies: specs, Reason: "test"}}
}

func jitterBoundOf(t *testing.T, m msg.Message) float64 {
	t.Helper()
	ps, ok := m.Body.(msg.PolicySet)
	if !ok {
		t.Fatalf("re-delivery = %T, want msg.PolicySet", m.Body)
	}
	for _, s := range ps.Policies {
		for _, c := range s.Conditions {
			if c.Attribute == "jitter_rate" {
				return c.Value
			}
		}
	}
	t.Fatalf("no jitter_rate condition in %+v", ps.Policies)
	return 0
}

func TestAgentCacheCanaryOverlayAndHits(t *testing.T) {
	a, sent, to := newAgent(t)
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	canaryID := msg.Identity{Host: "h-canary", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	otherID := msg.Identity{Host: "h-other", PID: 2, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(canaryID, sensors...))
	a.HandleMessage(register(otherID, sensors...))
	if st := a.CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("pre-delta stats = %+v", st)
	}
	*sent, *to = nil, nil

	// Canary delta: only the cohort registrant is re-delivered, and it
	// gets the canary view.
	a.HandleMessage(delta(1, 0, "canary", []string{"h-canary"}, tightSpec()))
	if len(*sent) != 1 || (*to)[0] != canaryID.Address()+"/qosl_coordinator" {
		t.Fatalf("canary re-delivery went to %v", *to)
	}
	if got := jitterBoundOf(t, (*sent)[0]); got != 1.5 {
		t.Fatalf("canary registrant got jitter bound %v", got)
	}
	if a.Generation("mpeg_play") != 1 {
		t.Fatalf("generation = %d", a.Generation("mpeg_play"))
	}
	// The first delta seeds the baseline from the repository.
	if st := a.CacheStats(); st.Applied != 1 || st.Refreshes != 1 {
		t.Fatalf("post-canary stats = %+v", st)
	}

	// Registrations now hit the cache: cohort hosts get the overlay,
	// everyone else the baseline.
	*sent, *to = nil, nil
	lateCanary := msg.Identity{Host: "h-canary", PID: 3, Executable: "mpeg_play", Application: "VideoApplication"}
	lateOther := msg.Identity{Host: "h-other", PID: 4, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(lateCanary, sensors...))
	a.HandleMessage(register(lateOther, sensors...))
	if got := jitterBoundOf(t, (*sent)[0]); got != 1.5 {
		t.Fatalf("late cohort registrant got jitter bound %v", got)
	}
	if got := jitterBoundOf(t, (*sent)[1]); got != 1.25 {
		t.Fatalf("late non-cohort registrant got jitter bound %v", got)
	}
	if st := a.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("post-hit stats = %+v", st)
	}

	// Fleet delta: everyone re-delivered, overlay cleared.
	*sent, *to = nil, nil
	fleet := tightSpec()
	fleet.Conditions[2].Value = 2.0
	a.HandleMessage(delta(2, 1, "fleet", nil, fleet))
	if len(*sent) != 4 {
		t.Fatalf("fleet delta re-delivered %d of 4", len(*sent))
	}
	for i := range *sent {
		if got := jitterBoundOf(t, (*sent)[i]); got != 2.0 {
			t.Fatalf("re-delivery %d got jitter bound %v", i, got)
		}
	}
}

func TestAgentCacheStaleAndGapDeltas(t *testing.T) {
	a, sent, _ := newAgent(t)
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	id := msg.Identity{Host: "h-other", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(id, sensors...))
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec()))
	*sent = nil

	// A duplicate (or reordered older) delta is ignored.
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec()))
	if len(*sent) != 0 {
		t.Fatalf("stale delta re-delivered %d messages", len(*sent))
	}
	if st := a.CacheStats(); st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if a.Generation("mpeg_play") != 1 {
		t.Fatalf("stale delta moved generation to %d", a.Generation("mpeg_play"))
	}

	// A gap (prev != cached generation) forces a full re-pull of the
	// repository truth before applying the payload: a canary delta after
	// a gap rebuilds the baseline from the repository (jitter 1.25, not
	// the 1.5 the lost generations had installed).
	*sent = nil
	canary := tightSpec()
	canary.Conditions[2].Value = 3.0
	a.HandleMessage(delta(5, 4, "canary", []string{"h-canary"}, canary))
	if st := a.CacheStats(); st.Refreshes != 2 { // initial seed + this gap
		t.Fatalf("stats = %+v", st)
	}
	if a.Generation("mpeg_play") != 5 {
		t.Fatalf("generation = %d", a.Generation("mpeg_play"))
	}
	// The non-cohort registrant's next lookup serves the re-pulled
	// repository baseline, not the lost-generation state.
	*sent = nil
	late := msg.Identity{Host: "h-other", PID: 9, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(late, sensors...))
	if got := jitterBoundOf(t, (*sent)[0]); got != 1.25 {
		t.Fatalf("post-gap baseline jitter bound = %v", got)
	}
}

// rolePolicy is videoPolicy with a tighter jitter bound, stored as a
// role-specific binding of the same policy name.
const rolePolicy = `
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.1)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

// TestAgentRoleBindingOverlaysCache pins the role semantics of the
// delta cache: the cache carries the any-role view only, and an
// identity with a user role gets its role-specific repository bindings
// overlaid on top — a role binding must never be shadowed by a cache
// answer, yet roles without bindings of their own ride the delta
// stream (canary included) exactly like any-role processes.
func TestAgentRoleBindingOverlaysCache(t *testing.T) {
	a, svc, sent, to := newAgentSvc(t, nil)
	p, err := policy.ParseOne(rolePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.StorePolicy(p, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play", UserRole: "physician"}); err != nil {
		t.Fatal(err)
	}
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	plainID := msg.Identity{Host: "h-canary", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	roleID := msg.Identity{Host: "h-canary", PID: 2, Executable: "mpeg_play", Application: "VideoApplication",
		UserRole: "physician"}
	// A role with no bindings of its own: its view is the any-role view.
	viewerID := msg.Identity{Host: "h-canary", PID: 3, Executable: "mpeg_play", Application: "VideoApplication",
		UserRole: "viewer"}

	// A fleet delta seeds the cache before anyone registers.
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec()))

	a.HandleMessage(register(plainID, sensors...))
	if got := jitterBoundOf(t, (*sent)[0]); got != 1.5 {
		t.Fatalf("any-role registrant got jitter bound %v, want the cached 1.5", got)
	}
	a.HandleMessage(register(roleID, sensors...))
	if got := jitterBoundOf(t, (*sent)[1]); got != 1.1 {
		t.Fatalf("role-bound registrant got jitter bound %v, want the shadowing 1.1", got)
	}
	a.HandleMessage(register(viewerID, sensors...))
	if got := jitterBoundOf(t, (*sent)[2]); got != 1.5 {
		t.Fatalf("binding-less role got jitter bound %v, want the cached 1.5", got)
	}
	if st := a.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want both role registrations counted as misses", st)
	}

	// A canary delta covering the shared host re-delivers to all three:
	// the binding-less role sees the canary exactly like the any-role
	// process, while the physician's same-name binding shadows it — the
	// view each would hold after promotion.
	*sent, *to = nil, nil
	canary := tightSpec()
	canary.Conditions[2].Value = 2.5
	a.HandleMessage(delta(2, 1, "canary", []string{"h-canary"}, canary))
	if len(*sent) != 3 {
		t.Fatalf("canary re-delivered %d of 3 (to %v)", len(*sent), *to)
	}
	for i := range *sent {
		want := 2.5
		if (*to)[i] == roleID.Address()+"/qosl_coordinator" {
			want = 1.1
		}
		if got := jitterBoundOf(t, (*sent)[i]); got != want {
			t.Fatalf("canary re-delivery to %s got jitter bound %v, want %v", (*to)[i], got, want)
		}
	}

	// A fleet delta re-delivers all three, the role overlay intact.
	*sent, *to = nil, nil
	fleet := tightSpec()
	fleet.Conditions[2].Value = 2.0
	a.HandleMessage(delta(3, 2, "fleet", nil, fleet))
	if len(*sent) != 3 {
		t.Fatalf("fleet delta re-delivered %d of 3", len(*sent))
	}
	for i := range *sent {
		want := 2.0
		if (*to)[i] == roleID.Address()+"/qosl_coordinator" {
			want = 1.1
		}
		if got := jitterBoundOf(t, (*sent)[i]); got != want {
			t.Fatalf("re-delivery to %s got jitter bound %v, want %v", (*to)[i], got, want)
		}
	}
}

// toggleStore fails every Search while *fail is set — the repository
// becoming unreachable mid-run.
type toggleStore struct {
	repository.Store
	fail *bool
}

func (s toggleStore) Search(base repository.DN, sc repository.Scope, f repository.Filter) ([]*repository.Entry, error) {
	if *s.fail {
		return nil, errors.New("repository unreachable")
	}
	return s.Store.Search(base, sc, f)
}

// TestAgentGapRefreshFailureRetries: when the gap-triggered full
// re-pull fails, the delta is dropped WITHOUT advancing the cached
// generation, so the next delta re-detects the gap and retries — the
// agent must not present a converged chain over a stale baseline.
func TestAgentGapRefreshFailureRetries(t *testing.T) {
	fail := false
	a, _, sent, _ := newAgentSvc(t, func(s repository.Store) repository.Store {
		return toggleStore{Store: s, fail: &fail}
	})
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	a.SetTelemetry(reg)
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	id := msg.Identity{Host: "h", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(id, sensors...))
	*sent = nil

	// The repository goes dark; the first delta's seed re-pull fails.
	fail = true
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec()))
	if len(*sent) != 0 {
		t.Fatalf("failed refresh still re-delivered %d messages", len(*sent))
	}
	if g := a.Generation("mpeg_play"); g != 0 {
		t.Fatalf("failed refresh advanced generation to %d", g)
	}
	st := a.CacheStats()
	if st.RefreshFailures != 1 || st.Applied != 0 {
		t.Fatalf("stats = %+v, want 1 refresh failure and nothing applied", st)
	}
	if v := reg.Counter("agent.cache.refresh_failures").Value(); v != 1 {
		t.Fatalf("agent.cache.refresh_failures = %d", v)
	}

	// The repository comes back: the next delta re-detects the gap
	// (Prev=1 against cached 0) and heals it.
	fail = false
	next := tightSpec()
	next.Conditions[2].Value = 2.0
	a.HandleMessage(delta(2, 1, "fleet", nil, next))
	if g := a.Generation("mpeg_play"); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	if len(*sent) != 1 {
		t.Fatalf("healed delta re-delivered %d messages", len(*sent))
	}
	if got := jitterBoundOf(t, (*sent)[0]); got != 2.0 {
		t.Fatalf("post-heal view jitter bound = %v", got)
	}
	st = a.CacheStats()
	if st.Refreshes != 2 || st.RefreshFailures != 1 || st.Applied != 1 {
		t.Fatalf("stats after heal = %+v", st)
	}
}

func TestAgentCacheCountersInRegistry(t *testing.T) {
	a, _, _ := newAgent(t)
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	a.SetTelemetry(reg)
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	id := msg.Identity{Host: "h", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	a.HandleMessage(register(id, sensors...))               // miss
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec())) // applied + seed refresh
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec())) // stale
	a.HandleMessage(register(id, sensors...))               // hit
	for name, want := range map[string]uint64{
		"agent.cache.misses":       1,
		"agent.cache.hits":         1,
		"agent.cache.refreshes":    1,
		"agent.cache.stale_deltas": 1,
		"agent.deltas_applied":     1,
		"agent.registrations":      2,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestAgentDecodedBody: a registration as the TCP transport delivers it,
// decoded from the wire, is handled.
func TestAgentDecodedBody(t *testing.T) {
	a, sent, _ := newAgent(t)
	id := msg.Identity{Host: "h", PID: 9, Executable: "mpeg_play", Application: "VideoApplication"}
	frame, err := msg.MarshalWire(msg.WireBinary, "/agent", register(id, "fps_sensor", "jitter_sensor", "buffer_sensor"))
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := msg.UnmarshalWire(frame)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleMessage(m)
	if len(*sent) != 1 {
		t.Fatalf("decoded register not handled")
	}
}

// TestAgentRosterStaysSortedWithoutResort: registrants arriving in
// scrambled order (and re-registering) land in a sorted, duplicate-free
// roster by insertion, and a fleet delta still fans out in sorted address
// order. Before, every new registrant re-sorted the whole roster.
func TestAgentRosterStaysSortedWithoutResort(t *testing.T) {
	a, sent, to := newAgent(t)
	sensors := []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}
	var want []string
	for i := 0; i < 200; i++ {
		id := msg.Identity{Host: "h", PID: (i*7919)%200 + 1, Executable: "mpeg_play", Application: "VideoApplication"}
		a.HandleMessage(register(id, sensors...))
		if i%3 == 0 {
			a.HandleMessage(register(id, sensors...)) // re-registration adds nothing
		}
		want = append(want, id.Address()+"/qosl_coordinator")
	}
	sort.Strings(want)
	if !reflect.DeepEqual(a.order, want) {
		t.Fatalf("roster order is not the sorted registrant set: %d entries, want %d", len(a.order), len(want))
	}
	*sent, *to = nil, nil
	a.HandleMessage(delta(1, 0, "fleet", nil, tightSpec()))
	if !reflect.DeepEqual(*to, want) {
		t.Errorf("fleet delta fan-out order differs from sorted roster (%d sends)", len(*to))
	}
}
