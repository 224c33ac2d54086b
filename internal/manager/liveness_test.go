package manager

import (
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/rules"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
)

// manualClock is a hand-advanced liveness clock for deterministic
// timeout tests.
type manualClock struct{ now time.Duration }

func (c *manualClock) read() time.Duration { return c.now }

func heartbeat(id msg.Identity, seq uint64) msg.Message {
	return msg.Message{From: id.Address(), Body: msg.Heartbeat{ID: id, Seq: seq}}
}

// TestHostManagerHeartbeatKeepsAgentAlive: heartbeats (and violation
// reports) refresh the liveness deadline, so a chatty agent is never
// evicted no matter how much wall time passes.
func TestHostManagerHeartbeatKeepsAgentAlive(t *testing.T) {
	clk := &manualClock{}
	r := newRigLive(t, "", Liveness{Clock: clk.read, Timeout: 3 * time.Second})

	for i := 0; i < 5; i++ {
		r.hm.HandleMessage(heartbeat(r.id, uint64(i+1)))
		clk.now += 2 * time.Second
		if n := r.hm.CheckLiveness(); n != 0 {
			t.Fatalf("evicted %d agents despite heartbeats every 2s (timeout 3s)", n)
		}
	}
	if r.hm.HeartbeatsSeen != 5 {
		t.Errorf("HeartbeatsSeen = %d, want 5", r.hm.HeartbeatsSeen)
	}
	// A violation report counts as contact too.
	clk.now += 2 * time.Second
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 15, 12, false)})
	clk.now += 2 * time.Second
	if n := r.hm.CheckLiveness(); n != 0 {
		t.Errorf("evicted %d agents after a recent violation report", n)
	}
}

// TestHostManagerEvictsSilentAgent: an agent silent past the liveness
// timeout is fully evicted — tracking dropped, its role facts
// retracted, a component-down fact asserted for the rule base, and
// every open violation episode abandoned with the reason traced.
func TestHostManagerEvictsSilentAgent(t *testing.T) {
	clk := &manualClock{}
	r := newRigLive(t, "", Liveness{Clock: clk.read, Timeout: 3 * time.Second})
	tracer := telemetry.NewTracer(clk.read)
	r.hm.SetTelemetry(nil, tracer)

	// An open violation episode for the soon-to-die agent.
	tracer.Begin(r.id.Address(), "NotifyQoSViolation", "coordinator", "fps out of band")

	clk.now = 10 * time.Second
	if n := r.hm.CheckLiveness(); n != 1 {
		t.Fatalf("CheckLiveness evicted %d, want 1", n)
	}
	if r.hm.AgentsEvicted != 1 {
		t.Errorf("AgentsEvicted = %d, want 1", r.hm.AgentsEvicted)
	}
	if r.hm.Tracked(r.proc.PID()) != nil {
		t.Error("evicted process still tracked")
	}
	if n := len(r.hm.Engine().FactsMatching(rules.F("proc-role", pidSym(r.proc.PID()), "?")...)); n != 0 {
		t.Errorf("%d proc-role facts survive eviction", n)
	}
	if n := len(r.hm.Engine().FactsMatching(rules.F("component-down", pidSym(r.proc.PID()), "?")...)); n != 1 {
		t.Errorf("component-down facts = %d, want 1", n)
	}
	// The open episode was closed with an explicit, traced reason.
	if tracer.Abandoned() != 1 || tracer.Open() != 0 {
		t.Fatalf("abandoned=%d open=%d, want 1/0", tracer.Abandoned(), tracer.Open())
	}
	tr := tracer.Traces()[0]
	if !tr.Abandoned {
		t.Fatal("trace not marked abandoned")
	}
	last := tr.Spans[len(tr.Spans)-1]
	if !strings.Contains(last.Detail, "component_down") || !strings.Contains(last.Detail, "mpeg_play") {
		t.Errorf("abandon reason = %q, want component_down naming the executable", last.Detail)
	}
	// A second sweep is a no-op: the eviction is not double-counted.
	if n := r.hm.CheckLiveness(); n != 0 {
		t.Errorf("second sweep evicted %d", n)
	}
}

// TestHostManagerHeartbeatReAdoptsUnknownAgent models the manager
// restarting (or having evicted an agent that was merely partitioned):
// a heartbeat from an unknown PID re-adopts the process through
// OnUnknownProc, retracts its down marker, and reports flow again.
func TestHostManagerHeartbeatReAdoptsUnknownAgent(t *testing.T) {
	clk := &manualClock{}
	r := newRigLive(t, "", Liveness{Clock: clk.read, Timeout: 3 * time.Second})
	r.hm.OnUnknownProc = func(id msg.Identity) (runtime.ProcHandle, bool) {
		if id.PID == r.proc.PID() {
			return r.proc, true
		}
		return nil, false
	}

	clk.now = 10 * time.Second
	if n := r.hm.CheckLiveness(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	// The partitioned agent comes back: its next heartbeat re-adopts it.
	r.hm.HandleMessage(heartbeat(r.id, 42))
	if r.hm.Tracked(r.proc.PID()) == nil {
		t.Fatal("heartbeat from unknown PID did not re-adopt the process")
	}
	if n := len(r.hm.Engine().FactsMatching(rules.F("component-down", pidSym(r.proc.PID()), "?")...)); n != 0 {
		t.Errorf("component-down fact survives re-adoption (%d facts)", n)
	}
	// And it stays alive as long as it keeps beating.
	clk.now += 2 * time.Second
	if n := r.hm.CheckLiveness(); n != 0 {
		t.Errorf("re-adopted agent evicted %d immediately", n)
	}
	// Violations from it are acted on again.
	before := r.proc.Boost()
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 15, 12, false)})
	if r.proc.Boost() == before {
		t.Error("violation from re-adopted agent not acted on")
	}
}

// TestHostManagerUnadoptableContactNotEvicted: heartbeats and reports
// from a PID the manager does not track and cannot adopt leave no roster
// entry behind, so the next sweep evicts nothing and counts nothing.
func TestHostManagerUnadoptableContactNotEvicted(t *testing.T) {
	clk := &manualClock{}
	r := newRigLive(t, "", Liveness{Clock: clk.read, Timeout: 3 * time.Second})
	r.hm.OnUnknownProc = func(msg.Identity) (runtime.ProcHandle, bool) { return nil, false }
	ghost := r.id
	ghost.PID = 9999
	for i := 0; i < 3; i++ {
		r.hm.HandleMessage(heartbeat(ghost, uint64(i+1)))
	}
	r.hm.HandleMessage(msg.Message{Body: violation(ghost, 10, 12, false)})
	clk.now = 2 * time.Second
	r.hm.HandleMessage(heartbeat(r.id, 1)) // the tracked agent stays alive
	clk.now = 4 * time.Second
	if n := r.hm.CheckLiveness(); n != 0 || r.hm.AgentsEvicted != 0 {
		t.Fatalf("CheckLiveness = %d, AgentsEvicted = %d; want 0/0 (only the untracked PID went silent)",
			n, r.hm.AgentsEvicted)
	}
}

// TestDomainManagerRetriesThenAbandonsEpisode: a localization episode
// whose server report never arrives is re-queried once, then closed
// with an abandoned span — no episode pends forever on a dead host
// manager.
func TestDomainManagerRetriesThenAbandonsEpisode(t *testing.T) {
	clk := &manualClock{}
	var sentTo []string
	var sent []msg.Message
	dm := NewDomainManager("/domain/QoSDomainManager", func(to string, m msg.Message) error {
		sentTo = append(sentTo, to)
		sent = append(sent, m)
		return nil // queries vanish: the server host manager is dead
	}, DomainConfig{Liveness: Liveness{Clock: clk.read, Timeout: 2 * time.Second}})
	dm.RegisterAppServer("VideoApplication", "/server-host/QoSHostManager", "mpeg_serve")
	tracer := telemetry.NewTracer(clk.read)
	dm.SetTelemetry(nil, tracer)

	id := msg.Identity{Host: "client-host", PID: 7, Executable: "mpeg_play",
		Application: "VideoApplication"}
	ctx := tracer.Begin(id.Address(), "NotifyQoSViolation", "coordinator", "fps out of band")
	dm.HandleMessage(msg.Message{From: "/client-host/QoSHostManager",
		Trace: ctx, Body: msg.Alarm{ID: id, Policy: "NotifyQoSViolation"}})
	if dm.PendingEpisodes() != 1 || len(sent) != 1 {
		t.Fatalf("pending=%d sent=%d after alarm, want 1/1", dm.PendingEpisodes(), len(sent))
	}

	// Within the timeout: nothing happens.
	clk.now = time.Second
	if re, ab := dm.CheckLiveness(); re != 0 || ab != 0 {
		t.Fatalf("premature sweep: retried=%d abandoned=%d", re, ab)
	}

	// First expiry: the query is re-sent to the same host manager.
	clk.now = 3 * time.Second
	re, ab := dm.CheckLiveness()
	if re != 1 || ab != 0 {
		t.Fatalf("first expiry: retried=%d abandoned=%d, want 1/0", re, ab)
	}
	if dm.QueryRetries != 1 || len(sent) != 2 || sentTo[1] != "/server-host/QoSHostManager" {
		t.Fatalf("retry accounting: QueryRetries=%d sent=%d to=%v", dm.QueryRetries, len(sent), sentTo)
	}
	if q1, q2 := sent[0].Body.(msg.Query), sent[1].Body.(msg.Query); q1.Ref != q2.Ref {
		t.Errorf("retry changed the episode ref: %q vs %q", q1.Ref, q2.Ref)
	}

	// Second expiry: the episode is abandoned, with the reason on the
	// client's violation trace.
	clk.now = 6 * time.Second
	re, ab = dm.CheckLiveness()
	if re != 0 || ab != 1 {
		t.Fatalf("second expiry: retried=%d abandoned=%d, want 0/1", re, ab)
	}
	if dm.EpisodeTimeouts != 1 || dm.PendingEpisodes() != 0 {
		t.Fatalf("EpisodeTimeouts=%d pending=%d, want 1/0", dm.EpisodeTimeouts, dm.PendingEpisodes())
	}
	var abandonSpan bool
	for _, tr := range tracer.Traces() {
		for _, sp := range tr.Spans {
			if sp.Stage == telemetry.StageAbandoned && strings.Contains(sp.Detail, "localization abandoned") {
				abandonSpan = true
			}
		}
	}
	if !abandonSpan {
		t.Error("no abandoned span recorded on the violation trace")
	}
}
