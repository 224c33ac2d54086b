package manager

import (
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

// rig wires a host manager over a loopback send that records messages.
type rig struct {
	sim  *sim.Simulator
	host *sched.Host
	hm   *HostManager
	sent []msg.Message
	to   []string
	proc *sched.Proc
	id   msg.Identity
}

func newRig(t *testing.T, domainAddr string) *rig {
	t.Helper()
	return newRigLive(t, domainAddr, Liveness{})
}

// newRigLive is newRig with the host manager's liveness sweep armed.
func newRigLive(t *testing.T, domainAddr string, live Liveness) *rig {
	t.Helper()
	r := &rig{sim: sim.New(1)}
	r.host = sched.NewHost(r.sim, "client-host", sched.WithMemory(10000))
	r.hm = NewHostManager("/client-host/QoSHostManager", r.host, func(to string, m msg.Message) error {
		r.to = append(r.to, to)
		r.sent = append(r.sent, m)
		return nil
	}, domainAddr, live)
	// A CPU-bound process standing in for the video client.
	r.proc = r.host.Spawn("mpeg_play", func(p *sched.Proc) {
		var loop func()
		loop = func() { p.Use(10*time.Millisecond, func() { loop() }) }
		loop()
	}, sched.WithWorkingSet(500))
	r.id = msg.Identity{Host: "client-host", PID: r.proc.PID(),
		Executable: "mpeg_play", Application: "VideoApplication"}
	r.hm.Track(r.proc, r.id)
	return r
}

func violation(id msg.Identity, fps, buf float64, overshoot bool) msg.Violation {
	return msg.Violation{
		ID:     id,
		Policy: "NotifyQoSViolation",
		Readings: map[string]float64{
			"frame_rate":  fps,
			"jitter_rate": 0.4,
			"buffer_size": buf,
		},
		Overshoot: overshoot,
	}
}

func TestHostManagerBoostsOnLocalStarvation(t *testing.T) {
	r := newRig(t, "")
	before := r.proc.Boost()
	// Long buffer (12 >= threshold 8): local starvation; fps 15 → boost
	// max(2, min(15, 25-15)) = 10.
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 15, 12, false)})
	if got := r.proc.Boost() - before; got != 10 {
		t.Errorf("boost delta = %d, want 10", got)
	}
	if r.hm.ViolationsSeen != 1 || r.hm.CPU().Adjustments != 1 {
		t.Errorf("stats: violations=%d adjustments=%d", r.hm.ViolationsSeen, r.hm.CPU().Adjustments)
	}
	// Episode facts are cleared; only the deffacts threshold remains.
	if n := r.hm.Engine().FactCount(); n != 1 {
		t.Errorf("facts after episode = %d, want 1", n)
	}
}

func TestHostManagerBoostProportionalToGap(t *testing.T) {
	r := newRig(t, "")
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 24, 12, false)})
	small := r.proc.Boost() // 25-24=1 → clamped to min 2
	if small != 2 {
		t.Errorf("small-gap boost = %d, want 2", small)
	}
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 2, 12, false)})
	// 25-2=23 → clamped to max 15 per step.
	if got := r.proc.Boost() - small; got != 15 {
		t.Errorf("large-gap boost step = %d, want 15", got)
	}
}

func TestHostManagerEscalatesShortBuffer(t *testing.T) {
	r := newRig(t, "/domain/QoSDomainManager")
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 15, 1, false)})
	if r.proc.Boost() != 0 {
		t.Errorf("short-buffer violation boosted CPU by %d", r.proc.Boost())
	}
	if r.hm.Escalations != 1 || len(r.sent) != 1 {
		t.Fatalf("escalations=%d sent=%d", r.hm.Escalations, len(r.sent))
	}
	al, ok := r.sent[0].Body.(msg.Alarm)
	if !ok || r.to[0] != "/domain/QoSDomainManager" {
		t.Fatalf("escalation = %T to %q", r.sent[0].Body, r.to[0])
	}
	if al.ID.PID != r.id.PID || al.Readings["buffer_size"] != 1 {
		t.Errorf("alarm = %+v", al)
	}
}

func TestHostManagerReclaimOnOvershoot(t *testing.T) {
	r := newRig(t, "")
	r.proc.SetBoost(10)
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 30, 0, true)})
	if r.proc.Boost() != 9 {
		t.Errorf("boost after overshoot = %d, want 9", r.proc.Boost())
	}
	if r.hm.OvershootsSeen != 1 {
		t.Errorf("overshoots = %d", r.hm.OvershootsSeen)
	}
}

func TestHostManagerDefaultBoostWithoutBufferReading(t *testing.T) {
	r := newRig(t, "")
	v := msg.Violation{ID: r.id, Policy: "P", Readings: map[string]float64{"frame_rate": 15}}
	r.hm.HandleMessage(msg.Message{Body: v})
	if r.proc.Boost() != 5 {
		t.Errorf("default boost = %d, want 5", r.proc.Boost())
	}
}

func TestHostManagerIgnoresUntrackedProcess(t *testing.T) {
	r := newRig(t, "")
	ghost := r.id
	ghost.PID = 9999
	r.hm.HandleMessage(msg.Message{Body: violation(ghost, 10, 12, false)})
	if r.hm.RuleErrors != 1 || r.proc.Boost() != 0 {
		t.Errorf("untracked violation: errors=%d boost=%d", r.hm.RuleErrors, r.proc.Boost())
	}
}

func TestHostManagerQueryReport(t *testing.T) {
	r := newRig(t, "")
	r.sim.RunFor(90 * time.Second) // let load average build and CPU accrue
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Query{
		Keys: []string{"cpu_load", "mem_usage", "proc_cpu:mpeg_play", "proc_boost:mpeg_play", "run_queue"},
		Ref:  "q1",
	}})
	if len(r.sent) != 1 || r.to[0] != "/domain" {
		t.Fatalf("query produced %d messages", len(r.sent))
	}
	rep := r.sent[0].Body.(msg.Report)
	if rep.Ref != "q1" || rep.Host != "client-host" {
		t.Errorf("report header = %+v", rep)
	}
	if rep.Values["cpu_load"] < 0.5 {
		t.Errorf("cpu_load = %v, want ~1 with a spinner", rep.Values["cpu_load"])
	}
	if rep.Values["proc_cpu:mpeg_play"] < 80 {
		t.Errorf("proc_cpu = %v, want ~90s", rep.Values["proc_cpu:mpeg_play"])
	}
	if mu := rep.Values["mem_usage"]; mu < 0.04 || mu > 0.06 {
		t.Errorf("mem_usage = %v, want 0.05 (500 of 10000 pages)", mu)
	}
}

func TestHostManagerDirectives(t *testing.T) {
	r := newRig(t, "")
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Directive{
		Action: "boost_cpu", Target: "mpeg_play", Amount: 7}})
	if r.proc.Boost() != 7 {
		t.Errorf("boost after directive = %d", r.proc.Boost())
	}
	ack := r.sent[len(r.sent)-1].Body.(msg.Ack)
	if !ack.OK {
		t.Errorf("ack = %+v", ack)
	}
	res0 := r.proc.Resident()
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Directive{
		Action: "adjust_memory", Target: "mpeg_play", Amount: 100}})
	if r.proc.Resident() != res0+100 {
		t.Errorf("resident = %d, want %d", r.proc.Resident(), res0+100)
	}
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Directive{
		Action: "boost_cpu", Target: "ghost", Amount: 1}})
	ack = r.sent[len(r.sent)-1].Body.(msg.Ack)
	if ack.OK || !strings.Contains(ack.Err, "ghost") {
		t.Errorf("ack for unknown target = %+v", ack)
	}
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Directive{
		Action: "explode", Target: "mpeg_play"}})
	ack = r.sent[len(r.sent)-1].Body.(msg.Ack)
	if ack.OK {
		t.Error("unknown action acked OK")
	}
}

func TestHostManagerRuleSwapAtRuntime(t *testing.T) {
	r := newRig(t, "")
	// Replace the rule set: all violations now get real-time class.
	err := r.hm.LoadRules(`
(defrule always-rt
  (violation ?p ?policy)
  =>
  (call grant-rt ?p 20))
`)
	if err != nil {
		t.Fatal(err)
	}
	r.hm.HandleMessage(msg.Message{Body: violation(r.id, 15, 12, false)})
	if r.proc.Class() != sched.RT || r.proc.Priority() != 20 {
		t.Errorf("after rule swap: class=%v prio=%d", r.proc.Class(), r.proc.Priority())
	}
}

func TestCPUManagerClamping(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h")
	p := h.Spawn("x", func(p *sched.Proc) { p.Sleep(time.Hour, func() { p.Exit() }) })
	cm := NewCPUManager(h)
	if got := cm.Boost(p, 100); got != maxBoost {
		t.Errorf("boost clamped to %d, want %d", got, maxBoost)
	}
	if got := cm.Boost(p, -200); got != minBoost {
		t.Errorf("boost clamped to %d, want %d", got, minBoost)
	}
	cm.GrantRealtime(p, 15)
	if p.Class() != sched.RT {
		t.Error("GrantRealtime did not move class")
	}
	cm.RevokeRealtime(p)
	if p.Class() != sched.TS {
		t.Error("RevokeRealtime did not restore TS")
	}
}

func TestMemoryManagerEnsure(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", sched.WithMemory(1000))
	p := h.Spawn("x", func(p *sched.Proc) { p.Sleep(time.Hour, func() { p.Exit() }) },
		sched.WithWorkingSet(100))
	mm := NewMemoryManager(h)
	if got := mm.Ensure(p, 50); got != 100 {
		t.Errorf("Ensure below current shrank to %d", got)
	}
	if got := mm.Ensure(p, 300); got != 300 {
		t.Errorf("Ensure = %d, want 300", got)
	}
	if got := mm.Adjust(p, -100); got != 200 {
		t.Errorf("Adjust = %d, want 200", got)
	}
}

// domainRig wires a domain manager with two host managers (client and
// server) over a loopback router.
type domainRig struct {
	sim        *sim.Simulator
	clientHost *sched.Host
	serverHost *sched.Host
	clientHM   *HostManager
	serverHM   *HostManager
	dm         *DomainManager
	serverProc *sched.Proc
	clientID   msg.Identity
}

func newDomainRig(t *testing.T) *domainRig {
	t.Helper()
	r := &domainRig{sim: sim.New(1)}
	// Synchronous loopback router between the three managers.
	route := func(to string, m msg.Message) error {
		switch to {
		case "/client-host/QoSHostManager":
			r.clientHM.HandleMessage(m)
		case "/server-host/QoSHostManager":
			r.serverHM.HandleMessage(m)
		case "/domain/QoSDomainManager":
			r.dm.HandleMessage(m)
		}
		return nil
	}
	r.clientHost = sched.NewHost(r.sim, "client-host")
	r.serverHost = sched.NewHost(r.sim, "server-host", sched.WithMemory(10000))
	r.clientHM = NewHostManager("/client-host/QoSHostManager", r.clientHost, route, "/domain/QoSDomainManager", Liveness{})
	r.serverHM = NewHostManager("/server-host/QoSHostManager", r.serverHost, route, "", Liveness{})
	r.dm = NewDomainManager("/domain/QoSDomainManager", route, DomainConfig{})
	r.dm.RegisterAppServer("VideoApplication", "/server-host/QoSHostManager", "mpeg_serve")

	r.serverProc = r.serverHost.Spawn("mpeg_serve", func(p *sched.Proc) {
		var loop func()
		loop = func() { p.Use(time.Millisecond, func() { p.Sleep(32*time.Millisecond, loop) }) }
		loop()
	}, sched.WithWorkingSet(200))
	r.serverHM.Track(r.serverProc, msg.Identity{Host: "server-host",
		PID: r.serverProc.PID(), Executable: "mpeg_serve", Application: "VideoApplication"})

	clientProc := r.clientHost.Spawn("mpeg_play", func(p *sched.Proc) {
		var loop func()
		loop = func() { p.Use(time.Millisecond, func() { p.Sleep(32*time.Millisecond, loop) }) }
		loop()
	})
	r.clientID = msg.Identity{Host: "client-host", PID: clientProc.PID(),
		Executable: "mpeg_play", Application: "VideoApplication"}
	r.clientHM.Track(clientProc, r.clientID)
	return r
}

func TestDomainManagerDiagnosesServerCPUFault(t *testing.T) {
	r := newDomainRig(t)
	// Load the server machine so its load average rises above threshold.
	for i := 0; i < 4; i++ {
		r.serverHost.Spawn("hog", func(p *sched.Proc) {
			var loop func()
			loop = func() { p.Use(10*time.Millisecond, func() { loop() }) }
			loop()
		})
	}
	r.sim.RunFor(3 * time.Minute)
	before := r.serverProc.Boost()
	// Client-side: short buffer → escalate.
	r.clientHM.HandleMessage(msg.Message{Body: violation(r.clientID, 12, 1, false)})
	if r.dm.Alarms != 1 || r.dm.ServerFaults != 1 {
		t.Fatalf("alarms=%d serverFaults=%d", r.dm.Alarms, r.dm.ServerFaults)
	}
	if got := r.serverProc.Boost() - before; got != 10 {
		t.Errorf("server boost delta = %d, want 10", got)
	}
	if r.dm.NetworkFaults != 0 {
		t.Errorf("network faults = %d, want 0", r.dm.NetworkFaults)
	}
	if r.dm.Engine().FactCount() != 2 { // only deffacts thresholds remain
		t.Errorf("domain facts = %d, want 2", r.dm.Engine().FactCount())
	}
}

func TestDomainManagerDiagnosesNetworkFault(t *testing.T) {
	r := newDomainRig(t)
	r.sim.RunFor(3 * time.Minute) // idle server: low load
	var faulted *msg.Alarm
	r.dm.OnNetworkFault = func(al msg.Alarm) { faulted = &al }
	r.clientHM.HandleMessage(msg.Message{Body: violation(r.clientID, 12, 1, false)})
	if r.dm.NetworkFaults != 1 || faulted == nil {
		t.Fatalf("networkFaults=%d hook=%v", r.dm.NetworkFaults, faulted)
	}
	if faulted.ID.PID != r.clientID.PID {
		t.Errorf("faulted alarm = %+v", faulted)
	}
	if r.dm.ServerFaults != 0 || r.serverProc.Boost() != 0 {
		t.Errorf("server wrongly indicted: faults=%d boost=%d", r.dm.ServerFaults, r.serverProc.Boost())
	}
}

func TestDomainManagerDiagnosesServerMemoryFault(t *testing.T) {
	r := newDomainRig(t)
	// Consume server memory above the 0.9 threshold while CPU stays low.
	r.serverHost.SetResident(r.serverProc, 9500)
	r.sim.RunFor(3 * time.Minute)
	res0 := r.serverProc.Resident()
	r.clientHM.HandleMessage(msg.Message{Body: violation(r.clientID, 12, 1, false)})
	if r.dm.MemoryFaults != 1 {
		t.Fatalf("memoryFaults=%d (server=%d net=%d)", r.dm.MemoryFaults, r.dm.ServerFaults, r.dm.NetworkFaults)
	}
	if r.serverProc.Resident() <= res0 {
		t.Errorf("resident not grown: %d -> %d", res0, r.serverProc.Resident())
	}
}

func TestDomainManagerUnknownApplication(t *testing.T) {
	r := newDomainRig(t)
	ghost := r.clientID
	ghost.Application = "Mystery"
	r.dm.HandleMessage(msg.Message{Body: msg.Alarm{ID: ghost, Policy: "P"}})
	if r.dm.RuleErrors != 1 {
		t.Errorf("unknown application not counted: %d", r.dm.RuleErrors)
	}
}

func TestDomainManagerStaleReportIgnored(t *testing.T) {
	r := newDomainRig(t)
	r.dm.HandleMessage(msg.Message{Body: msg.Report{Host: "x", Ref: "e999",
		Values: map[string]float64{"cpu_load": 9}}})
	if r.dm.ServerFaults != 0 && r.dm.NetworkFaults != 0 {
		t.Error("stale report triggered diagnosis")
	}
}
