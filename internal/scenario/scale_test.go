package scenario

import (
	"testing"
	"time"
)

func TestScaleAllSessionsStayInBand(t *testing.T) {
	res := Scale(ScaleConfig{Hosts: 6, SessionsPerHost: 3, LoadPerHost: 2},
		20*time.Second, 60*time.Second)
	if res.Sessions != 18 {
		t.Fatalf("sessions = %d", res.Sessions)
	}
	for i, fps := range res.SessionFPS {
		if fps < 23 {
			t.Errorf("session %d fps = %.1f, want in band", i, fps)
		}
	}
	if res.Notifies == 0 {
		t.Error("no management traffic at scale")
	}
	if res.Adjustments == 0 {
		t.Error("no resource adjustments at scale")
	}
}

func TestScaleDiagnosesWithoutRestarts(t *testing.T) {
	// Every server is tracked by the server host manager, so the domain
	// reads each escalation's server-side statistics and never takes a
	// live server process for a dead one.
	res := Scale(ScaleConfig{Hosts: 16, SessionsPerHost: 4, LoadPerHost: 2},
		10*time.Second, 30*time.Second)
	if res.Escalations == 0 {
		t.Fatal("no escalations to diagnose")
	}
	if res.Restarts != 0 {
		t.Errorf("domain directed %d server restarts, want 0 (diagnoses: %d server, %d network)",
			res.Restarts, res.ServerFaults, res.NetworkFaults)
	}
	if res.ServerFaults+res.NetworkFaults == 0 {
		t.Error("no escalation was diagnosed as a server or network fault")
	}
}

func TestScaleDeterministic(t *testing.T) {
	a := Scale(ScaleConfig{Hosts: 3, SessionsPerHost: 2, LoadPerHost: 1, Seed: 5},
		10*time.Second, 30*time.Second)
	b := Scale(ScaleConfig{Hosts: 3, SessionsPerHost: 2, LoadPerHost: 1, Seed: 5},
		10*time.Second, 30*time.Second)
	if a.MeanFPS != b.MeanFPS || a.Notifies != b.Notifies || a.Events != b.Events {
		t.Errorf("scale runs diverged: %+v vs %+v", a, b)
	}
}

func TestScaleDeadStreamDetected(t *testing.T) {
	// A session whose server never sends must still be observable: with
	// the dead-stream fix the rate sensor reads 0 and the coordinator
	// reports violations (buffer empty -> escalation to the domain).
	sys := Build(Config{Managed: true})
	// Isolate detection from repair: disable the restart hook.
	sys.ServerHM.OnRestart = nil
	// Kill the server before it sends anything.
	sys.Server.Proc.Exit()
	res := sys.Run(5*time.Second, 30*time.Second)
	if res.MeanFPS != 0 {
		t.Fatalf("dead stream fps = %.2f", res.MeanFPS)
	}
	if res.Violations == 0 {
		t.Error("dead stream produced no violations (monitoring blind spot)")
	}
	if res.Escalations == 0 {
		t.Error("dead stream not escalated as a remote fault")
	}
}
