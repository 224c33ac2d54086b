package softqos

import (
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/msg"
)

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func TestLiveHostManagerDiagnosesAndAdjusts(t *testing.T) {
	lm, err := NewLiveHostManager("127.0.0.1:0", manager.DefaultHostRules)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	c, err := msg.Dial(lm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A local-CPU-starvation episode: long buffer, low frame rate. The
	// same rule set as the simulator fires boost-cpu with amount
	// max(2, min(15, 25-fps)) = 10, applied by the CPU resource manager
	// to the auto-tracked live process handle.
	err = c.Send(msg.Message{From: "/h/VideoApplication/mpeg_play/321/qosl_coordinator",
		Body: msg.Violation{
			ID:     Identity{Host: "h", PID: 321, Executable: "mpeg_play"},
			Policy: "NotifyQoSViolation",
			Readings: map[string]float64{
				"frame_rate": 15, "jitter_rate": 0.4, "buffer_size": 12},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(lm.Adjustments()) > 0 }) {
		t.Fatal("no resource adjustment produced")
	}
	adj := lm.Adjustments()[0]
	if adj.PID != 321 || adj.What != "boost" || adj.Value != 10 {
		t.Errorf("adjustment = %+v, want pid 321 boost 10", adj)
	}
	if p := lm.Host().Proc(321); p == nil || p.Boost() != 10 {
		t.Errorf("live process handle not boosted: %+v", p)
	}
	if lm.Violations() != 1 {
		t.Errorf("violations = %d", lm.Violations())
	}
}

func TestLiveHostManagerEscalatesToDomainManager(t *testing.T) {
	ld, err := NewLiveDomainManager("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	lm, err := NewLiveHostManagerDomain("127.0.0.1:0", "", ld.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	// The domain manager's localization queries the server-side host
	// manager of the application — here the same (only) host manager.
	ld.RegisterAppServer("VideoApplication", LiveHostManagerAddr, "mpeg_serve")
	ld.Route(LiveHostManagerAddr, lm.Addr())

	c, err := msg.Dial(lm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A short buffer means frames are not arriving: not a local fault —
	// the same escalate-remote rule as in simulation raises an Alarm.
	err = c.Send(msg.Message{From: "/h/VideoApplication/mpeg_play/7/qosl_coordinator",
		Body: msg.Violation{
			ID:       Identity{Host: "h", PID: 7, Executable: "mpeg_play", Application: "VideoApplication"},
			Policy:   "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 10, "buffer_size": 0},
		}})
	if err != nil {
		t.Fatal(err)
	}
	var escalations, alarms uint64
	if !waitFor(t, 5*time.Second, func() bool {
		lm.Sync(func() { escalations = lm.Manager().Escalations })
		ld.Sync(func() { alarms = ld.Manager().Alarms })
		return escalations > 0 && alarms > 0
	}) {
		t.Fatalf("escalation did not reach the domain manager: escalations=%d alarms=%d", escalations, alarms)
	}
}

func TestLiveHostManagerBadRules(t *testing.T) {
	if _, err := NewLiveHostManager("127.0.0.1:0", "(nonsense"); err == nil {
		t.Fatal("bad rules accepted")
	}
}

// TestLiveHostManagerAdjustmentRing: the adjustment record keeps the
// latest 1 024 actions, oldest first, and the count covers every one.
func TestLiveHostManagerAdjustmentRing(t *testing.T) {
	lm, err := NewLiveHostManager("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	p := lm.Host().StartProc(7)
	check := func(total int) {
		t.Helper()
		adjs := lm.Adjustments()
		kept := min(total, 1024)
		if len(adjs) != kept || lm.AdjustmentCount() != uint64(total) {
			t.Fatalf("after %d: kept %d, count %d; want %d, %d", total, len(adjs), lm.AdjustmentCount(), kept, total)
		}
		for i, a := range adjs {
			if want := total - kept + 1 + i; a.PID != 7 || a.What != "boost" || a.Value != want {
				t.Fatalf("after %d: adjustment %d = %+v, want boost %d", total, i, a, want)
			}
		}
	}
	for i := 1; i <= 3000; i++ {
		p.SetBoost(i) // each call records one adjustment with Value i
		if i == 10 || i == 1024 || i == 1025 || i == 3000 {
			check(i)
		}
	}
}
