package manager

import (
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

func TestHostManagerMiscAccessors(t *testing.T) {
	r := newRig(t, "")
	if r.hm.Addr() != "/client-host/QoSHostManager" {
		t.Errorf("Addr = %q", r.hm.Addr())
	}
	if r.hm.Tracked(r.id.PID) != r.proc {
		t.Error("Tracked did not return the registered process")
	}
	if r.hm.Tracked(424242) != nil {
		t.Error("Tracked returned a process for an unknown pid")
	}
	if mu := r.hm.MemUsage(); mu < 0.04 || mu > 0.06 {
		t.Errorf("MemUsage = %v, want 0.05", mu)
	}
	if len(r.hm.Engine().Rules()) == 0 {
		t.Error("default rules not loaded")
	}
}

func TestHostManagerDirectiveVariants(t *testing.T) {
	r := newRig(t, "")
	r.hm.HandleMessage(msg.Message{From: "/d", Body: msg.Directive{
		Action: "grant_rt", Target: "mpeg_play", Amount: 12}})
	if r.proc.Class() != sched.RT || r.proc.Priority() != 12 {
		t.Errorf("grant_rt: class=%v prio=%d", r.proc.Class(), r.proc.Priority())
	}
	r.proc.SetClass(sched.TS, 29)
	r.proc.SetBoost(10)
	r.hm.HandleMessage(msg.Message{From: "/d", Body: msg.Directive{
		Action: "reclaim_cpu", Target: "mpeg_play", Amount: 4}})
	if r.proc.Boost() != 6 {
		t.Errorf("reclaim_cpu boost = %d, want 6", r.proc.Boost())
	}
	r.hm.HandleMessage(msg.Message{From: "/d", Body: msg.Directive{
		Action: "boost_cpu", Target: "mpeg_play", Amount: 1}})
	if r.proc.Boost() != 7 {
		t.Errorf("boost_cpu boost = %d, want 7", r.proc.Boost())
	}
}

func TestOverloadRulesRequestAdaptation(t *testing.T) {
	r := newRig(t, "")
	if err := r.hm.LoadRules(OverloadHostRules); err != nil {
		t.Fatal(err)
	}
	// Saturated boost: the adapt rule fires instead of boosting further.
	r.proc.SetBoost(45)
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 10, 12, false)})
	if r.hm.Adaptations != 1 {
		t.Fatalf("adaptations = %d", r.hm.Adaptations)
	}
	if len(r.sent) != 1 {
		t.Fatalf("sent %d messages", len(r.sent))
	}
	d, ok := r.sent[0].Body.(msg.Directive)
	if !ok || d.Action != "actuate" || d.Target != "frame_skip" || d.Amount != 3 {
		t.Errorf("directive = %+v", r.sent[0].Body)
	}
	if !strings.HasSuffix(r.to[0], "/qosl_coordinator") {
		t.Errorf("adaptation sent to %q", r.to[0])
	}
	// Below saturation the usual boost applies.
	r.proc.SetBoost(10)
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 10, 12, false)})
	if r.proc.Boost() != 25 {
		t.Errorf("boost below saturation = %d, want 25", r.proc.Boost())
	}
}

func TestMemoryAwareRulesRestoreResidentSet(t *testing.T) {
	r := newRig(t, "")
	if err := r.hm.LoadRules(MemoryAwareHostRules); err != nil {
		t.Fatal(err)
	}
	// Page the process out; host is otherwise idle (load < 1.5).
	r.host.SetResident(r.proc, 100)
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 10, 12, false)})
	if r.proc.Resident() != r.proc.WorkingSet() {
		t.Errorf("resident = %d, want restored to working set %d",
			r.proc.Resident(), r.proc.WorkingSet())
	}
	if r.proc.Boost() != 0 {
		t.Errorf("memory fault wrongly boosted CPU by %d", r.proc.Boost())
	}
}

func TestDifferentiatedRulesCapStudent(t *testing.T) {
	s := sim.New(1)
	host := sched.NewHost(s, "h")
	var sent []msg.Message
	hm := NewHostManager("/h/QoSHostManager", host, func(to string, m msg.Message) error {
		sent = append(sent, m)
		return nil
	}, "", Liveness{})
	if err := hm.LoadRules(DifferentiatedHostRules); err != nil {
		t.Fatal(err)
	}
	mk := func(role string) (*sched.Proc, msg.Identity) {
		p := host.Spawn(role, func(p *sched.Proc) { p.Sleep(time.Hour, func() { p.Exit() }) })
		id := msg.Identity{Host: "h", PID: p.PID(), Executable: role,
			Application: "VideoApplication", UserRole: role}
		hm.Track(p, id)
		return p, id
	}
	phys, physID := mk("physician")
	stud, studID := mk("student")

	for i := 0; i < 5; i++ {
		hm.HandleMessage(msg.Message{Body: violation(physID, 10, 12, false)})
		hm.HandleMessage(msg.Message{Body: violation(studID, 10, 12, false)})
	}
	if phys.Boost() < 40 {
		t.Errorf("physician boost = %d, want escalating", phys.Boost())
	}
	if stud.Boost() > 5 {
		t.Errorf("student boost = %d, want capped at 5", stud.Boost())
	}
	_ = sent
}

func TestDomainManagerAccessors(t *testing.T) {
	dm := NewDomainManager("/d", func(string, msg.Message) error { return nil }, DomainConfig{})
	if dm.Addr() != "/d" {
		t.Errorf("Addr = %q", dm.Addr())
	}
	if len(dm.Engine().Rules()) != 4 {
		t.Errorf("domain rules = %v", dm.Engine().Rules())
	}
	// Replacing the rule set at run time.
	if err := dm.LoadRules(`(defrule x (a) => (log "a"))`); err != nil {
		t.Fatal(err)
	}
	if got := dm.Engine().Rules(); len(got) != 1 || got[0] != "x" {
		t.Errorf("after LoadRules: %v", got)
	}
	// Ack bodies are ignored without effect.
	dm.HandleMessage(msg.Message{Body: msg.Ack{Ref: "r", OK: true}})
}
