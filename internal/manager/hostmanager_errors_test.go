package manager

import (
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/runtime"
	"softqos/internal/sched"
)

// lastAck returns the most recent Ack the rig's host manager sent.
func lastAck(t *testing.T, r *rig) msg.Ack {
	t.Helper()
	if len(r.sent) == 0 {
		t.Fatal("no messages sent")
	}
	ack, ok := r.sent[len(r.sent)-1].Body.(msg.Ack)
	if !ok {
		t.Fatalf("last message body = %T, want Ack", r.sent[len(r.sent)-1].Body)
	}
	return ack
}

func directive(action, target string, amount float64) msg.Message {
	return msg.Message{From: "/domain", Body: msg.Directive{
		From: "/domain", Action: action, Target: target, Amount: amount}}
}

func TestHostManagerRestartNotSupported(t *testing.T) {
	r := newRig(t, "")
	r.hm.HandleMessage(directive("restart_proc", "mpeg_play", 0))
	ack := lastAck(t, r)
	if ack.OK || !strings.Contains(ack.Err, "restart not supported") {
		t.Errorf("ack = %+v, want restart-not-supported error", ack)
	}
	if r.hm.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", r.hm.Restarts)
	}
}

func TestHostManagerRestartWhileStillRunning(t *testing.T) {
	r := newRig(t, "")
	r.hm.OnRestart = func(string) (runtime.ProcHandle, msg.Identity, bool) {
		t.Fatal("OnRestart called for a live process")
		return nil, msg.Identity{}, false
	}
	r.hm.HandleMessage(directive("restart_proc", "mpeg_play", 0))
	ack := lastAck(t, r)
	if ack.OK || !strings.Contains(ack.Err, "still running") {
		t.Errorf("ack = %+v, want still-running error", ack)
	}
}

// deadProcRig extends the base rig with a tracked process that has exited.
func deadProcRig(t *testing.T) (*rig, msg.Identity) {
	t.Helper()
	r := newRig(t, "")
	p := r.host.Spawn("mpeg_serve", func(p *sched.Proc) {
		p.Use(time.Millisecond, p.Exit)
	})
	id := msg.Identity{Host: "client-host", PID: p.PID(),
		Executable: "mpeg_serve", Application: "VideoApplication"}
	r.hm.Track(p, id)
	r.sim.RunFor(5 * time.Second)
	if p.State() != sched.Exited {
		t.Fatalf("setup: process state = %v, want exited", p.State())
	}
	return r, id
}

func TestHostManagerRestartCallbackFailure(t *testing.T) {
	r, _ := deadProcRig(t)
	r.hm.OnRestart = func(string) (runtime.ProcHandle, msg.Identity, bool) {
		return nil, msg.Identity{}, false
	}
	r.hm.HandleMessage(directive("restart_proc", "mpeg_serve", 0))
	ack := lastAck(t, r)
	if ack.OK || !strings.Contains(ack.Err, "restart of mpeg_serve failed") {
		t.Errorf("ack = %+v, want restart-failed error", ack)
	}
	if r.hm.Restarts != 0 {
		t.Errorf("Restarts = %d after failed restart", r.hm.Restarts)
	}
}

func TestHostManagerRestartSuccess(t *testing.T) {
	r, id := deadProcRig(t)
	r.hm.OnRestart = func(exe string) (runtime.ProcHandle, msg.Identity, bool) {
		np := r.host.Spawn(exe, func(p *sched.Proc) { p.Sleep(time.Hour, p.Exit) })
		nid := id
		nid.PID = np.PID()
		return np, nid, true
	}
	r.hm.HandleMessage(directive("restart_proc", "mpeg_serve", 0))
	ack := lastAck(t, r)
	if !ack.OK || ack.Ref != "restart_proc:mpeg_serve" {
		t.Fatalf("ack = %+v", ack)
	}
	if r.hm.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", r.hm.Restarts)
	}
	// The replacement is tracked under the same executable and is alive.
	mp, ok := r.hm.procsByExe["mpeg_serve"]
	if !ok || !mp.proc.Alive() {
		t.Error("replacement process not tracked after restart")
	}
}

func TestHostManagerQueryOmitsDeadProcessKeys(t *testing.T) {
	r, _ := deadProcRig(t)
	r.hm.HandleMessage(msg.Message{From: "/domain", Body: msg.Query{
		Keys: []string{"cpu_load", "proc_cpu:mpeg_serve", "proc_cpu:mpeg_play", "proc_cpu:ghost", "bogus_stat"},
		Ref:  "q-dead",
	}})
	rep, ok := r.sent[len(r.sent)-1].Body.(msg.Report)
	if !ok {
		t.Fatalf("reply body = %T, want Report", r.sent[len(r.sent)-1].Body)
	}
	if rep.Ref != "q-dead" {
		t.Errorf("ref = %q", rep.Ref)
	}
	// The missing key is how the domain manager detects process death.
	if _, present := rep.Values["proc_cpu:mpeg_serve"]; present {
		t.Error("dead process reported a proc_cpu value")
	}
	if _, present := rep.Values["proc_cpu:ghost"]; present {
		t.Error("untracked executable reported a proc_cpu value")
	}
	if _, present := rep.Values["bogus_stat"]; present {
		t.Error("unknown statistic key reported a value")
	}
	if _, present := rep.Values["proc_cpu:mpeg_play"]; !present {
		t.Error("live process missing from report")
	}
	if _, present := rep.Values["cpu_load"]; !present {
		t.Error("cpu_load missing from report")
	}
}

func TestHostManagerDirectiveUnknownTargetAndAction(t *testing.T) {
	r := newRig(t, "")
	cases := []struct {
		name    string
		m       msg.Message
		wantErr string
	}{
		{"unknown target", directive("boost_cpu", "no-such-exe", 5), "no-such-exe"},
		{"empty target", directive("boost_cpu", "", 5), "no tracked process"},
		{"unknown action", directive("explode", "mpeg_play", 0), `unknown directive "explode"`},
		{"empty action", directive("", "mpeg_play", 0), "unknown directive"},
	}
	for _, tc := range cases {
		r.hm.HandleMessage(tc.m)
		ack := lastAck(t, r)
		if ack.OK || !strings.Contains(ack.Err, tc.wantErr) {
			t.Errorf("%s: ack = %+v, want error containing %q", tc.name, ack, tc.wantErr)
		}
	}
	if r.proc.Boost() != 0 {
		t.Errorf("malformed directives changed boost to %d", r.proc.Boost())
	}
}

// TestHostManagerDecodedBodiesDispatch: bodies as the TCP transport
// delivers them — decoded from the wire — reach the same handlers.
func TestHostManagerDecodedBodiesDispatch(t *testing.T) {
	r := newRig(t, "")
	decoded := func(m msg.Message) msg.Message {
		t.Helper()
		frame, err := msg.MarshalWire(msg.WireBinary, r.hm.Addr(), m)
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := msg.UnmarshalWire(frame)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	r.hm.HandleMessage(decoded(directive("boost_cpu", "mpeg_play", 3)))
	if r.proc.Boost() != 3 {
		t.Errorf("boost via decoded Directive = %d, want 3", r.proc.Boost())
	}
	r.hm.HandleMessage(decoded(msg.Message{From: "/domain", Body: msg.Query{
		Keys: []string{"cpu_load"}, Ref: "qp"}}))
	rep, ok := r.sent[len(r.sent)-1].Body.(msg.Report)
	if !ok || rep.Ref != "qp" || r.to[len(r.to)-1] != "/domain" {
		t.Errorf("decoded Query reply = %+v to %q", r.sent[len(r.sent)-1].Body, r.to[len(r.to)-1])
	}
	r.hm.HandleMessage(decoded(msg.Message{Body: violation(r.id, 15, 12, false)}))
	if r.hm.ViolationsSeen != 1 {
		t.Errorf("decoded Violation not handled: seen=%d", r.hm.ViolationsSeen)
	}
}
