package softqos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

// Policies pushed live during the test. The good one is attainable by
// the feed the test delivers; the bad one demands a frame rate the
// stream never reaches, so its canary bakes into a burn-rate breach.
const (
	liveGoodPolicy = `
oblig LiveCanaryGood {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.40)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`
	liveBadPolicy = `
oblig LiveCanaryBad {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 100(+2)(-2))
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`
)

// TestLivePolicyRollout drives the full live distribution loop over
// real TCP: a policy pushed through the repository server (policyctl's
// wire path) reaches an already-running coordinator without a restart,
// bakes as a canary against live SLO compliance, and is promoted; an
// unattainable policy pushed the same way breaches its burn rate during
// the bake and is rolled back automatically, leaving the repository
// truth and the coordinator untouched by it. The rollout is visible on
// /debug/qos throughout, and policyctl's status verb prints it.
func TestLivePolicyRollout(t *testing.T) {
	dir := NewDirectory()
	svc := NewRepositoryService(dir)
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
	if err := NewAdmin(svc).AddPolicy(Example1Policy, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}

	agent, err := ServeLiveAgent("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	lm, err := NewLiveHostManager("127.0.0.1:0", manager.OverloadHostRules)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	reg := telemetry.NewRegistry(wall)
	tracer := telemetry.NewTracer(wall)
	kit := Kit{Metrics: reg, Tracer: tracer}
	agent.SetTelemetry(reg)
	lm.SetTelemetry(reg, tracer)

	coord := NewLiveCoordinator(Identity{
		Host: "live-host", PID: os.Getpid(), Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), lm.Addr(), kit)
	defer coord.Close()

	// The live policy server: repository TCP endpoint + delta hub +
	// canary controller. A short bake and a 5s fast window keep the
	// promote/rollback decisions inside test time; with one host the
	// canary cohort is that host.
	lps, err := ServeLivePolicy("127.0.0.1:0", dir, svc, RolloutConfig{
		Bake: 1500 * time.Millisecond, Kit: kit})
	if err != nil {
		t.Fatal(err)
	}
	defer lps.Close()
	lps.Watch(agent.Addr())
	lps.SetHosts("live-host")
	lps.GateOn(tracer, wall, []telemetry.SLOTarget{
		{Policy: "LiveCanaryGood", FastWindow: 5 * time.Second},
		{Policy: "LiveCanaryBad", FastWindow: 5 * time.Second},
	})

	srv, err := export.Serve("127.0.0.1:0", reg, tracer, export.WithRollout(lps.Rollout()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fps := NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	coord.AddActuator(NewFuncActuator("frame_skip", func(args ...string) error { return nil }))
	coord.SetNotifyInterval(0)

	// The process registers BEFORE any push: everything it learns later
	// arrives through the live delta stream, not a restart.
	if err := coord.Register(); err != nil {
		t.Fatalf("register: %v", err)
	}

	// A background feed holds the stream in-band for the baseline and
	// the good policy (24.5 fps, low jitter) for the whole test; the bad
	// policy wants 100 fps and is violated by the same feed.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				coord.Sync(func() {
					jit.Set(0.3)
					buf.Set(12)
					fps.Set(24.5)
				})
			}
		}
	}()

	installedPolicies := func() []string {
		var names []string
		coord.Sync(func() {
			for _, s := range coord.InstalledSpecs() {
				names = append(names, s.Name)
			}
		})
		return names
	}
	waitInstalled := func(name string, present bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			has := false
			for _, n := range installedPolicies() {
				if n == name {
					has = true
				}
			}
			if has == present {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("coordinator policy %q: want present=%v, have %v", name, present, installedPolicies())
	}

	// Push through the repository TCP server — the exact wire path
	// `policyctl push` uses.
	cl, err := repository.DialDirectory(lps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	meta := PolicyMeta{Application: "VideoApplication", Executable: "mpeg_play"}

	st, err := cl.Push(liveGoodPolicy, meta)
	if err != nil {
		t.Fatalf("push good: %v", err)
	}
	if st.State != repository.RolloutBaking || st.Policy != "LiveCanaryGood" {
		t.Fatalf("push status = %+v, want baking LiveCanaryGood", st)
	}
	if len(st.CanaryHosts) != 1 || st.CanaryHosts[0] != "live-host" {
		t.Fatalf("canary cohort = %v", st.CanaryHosts)
	}

	// The canary reaches the running coordinator without a restart.
	waitInstalled("LiveCanaryGood", true)

	waitState := func(policy, state string) RolloutStatus {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			cur, _, err := cl.RolloutStatus()
			if err != nil {
				t.Fatalf("rollout status: %v", err)
			}
			if cur != nil && cur.Policy == policy && cur.State == state {
				return *cur
			}
			time.Sleep(50 * time.Millisecond)
		}
		cur, _, _ := cl.RolloutStatus()
		t.Fatalf("rollout never reached %s/%s; current %+v", policy, state, cur)
		return RolloutStatus{}
	}

	// Compliant bake: the good policy promotes fleet-wide and persists
	// into the repository service.
	promoted := waitState("LiveCanaryGood", repository.RolloutPromoted)
	if promoted.FleetGeneration <= promoted.Generation {
		t.Errorf("promoted fleet generation %d not after canary %d",
			promoted.FleetGeneration, promoted.Generation)
	}
	truth, err := svc.PoliciesFor(Identity{Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(truth))
	for _, s := range truth {
		names = append(names, s.Name)
	}
	if fmt.Sprint(names) != "[LiveCanaryGood NotifyQoSViolation]" {
		t.Fatalf("repository truth after promote = %v", names)
	}
	waitInstalled("LiveCanaryGood", true)

	// Unattainable policy: the same feed violates it immediately, the
	// violation episode drains the 5s fast window's error budget, and
	// the bake decision is an automatic rollback.
	st, err = cl.Push(liveBadPolicy, meta)
	if err != nil {
		t.Fatalf("push bad: %v", err)
	}
	waitInstalled("LiveCanaryBad", true)
	rolledBack := waitState("LiveCanaryBad", repository.RolloutRolledBack)
	if !strings.Contains(rolledBack.Reason, "burn") {
		t.Errorf("rollback reason %q does not name the burn breach", rolledBack.Reason)
	}
	// The rollback delta re-announces the unchanged truth: the bad
	// policy leaves the coordinator and never entered the repository.
	waitInstalled("LiveCanaryBad", false)
	waitInstalled("LiveCanaryGood", true)
	if truth, err = svc.PoliciesFor(Identity{Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range truth {
		if s.Name == "LiveCanaryBad" {
			t.Fatal("rolled-back policy persisted into the repository")
		}
	}

	// Operator rollback: a third push aborted by request before its bake
	// decides.
	if _, err := cl.Push(liveGoodPolicy, meta); err != nil {
		t.Fatalf("push for operator rollback: %v", err)
	}
	if _, err := cl.Rollback("operator says no"); err != nil {
		// The bake may have decided first on a slow machine; only a
		// missing-rollout error is acceptable then.
		if !strings.Contains(err.Error(), "no rollout baking") {
			t.Fatalf("rollback: %v", err)
		}
	} else {
		aborted := waitState("LiveCanaryGood", repository.RolloutRolledBack)
		if aborted.Reason != "operator says no" {
			t.Errorf("operator rollback reason = %q", aborted.Reason)
		}
	}

	// Convergence: the agent's generation cache caught up with the hub,
	// and the delta stream (not re-registration) kept it current.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && agent.Generation("mpeg_play") != lps.Generation("mpeg_play") {
		time.Sleep(20 * time.Millisecond)
	}
	if hg, ag := lps.Generation("mpeg_play"), agent.Generation("mpeg_play"); hg == 0 || hg != ag {
		t.Errorf("generation converged hub=%d agent=%d", hg, ag)
	}
	if cs := agent.CacheStats(); cs.Applied == 0 {
		t.Errorf("agent applied no deltas: %+v", cs)
	}

	// The rollout history is on /debug/qos for the whole fleet to see.
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(
		fmt.Sprintf("http://%s/debug/qos", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var payload export.Payload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("/debug/qos: %v", err)
	}
	if len(payload.RolloutHistory) < 2 {
		t.Fatalf("/debug/qos rollout history = %+v", payload.RolloutHistory)
	}
	sawPromote, sawRollback := false, false
	for _, h := range payload.RolloutHistory {
		switch h.State {
		case repository.RolloutPromoted:
			sawPromote = true
		case repository.RolloutRolledBack:
			sawRollback = true
		}
	}
	if !sawPromote || !sawRollback {
		t.Errorf("history missing a promote or rollback: %+v", payload.RolloutHistory)
	}

	// And policyctl itself prints it (the CLI over the same wire).
	out, err := exec.Command("go", "run", "./cmd/policyctl",
		"status", "-server", lps.Addr()).CombinedOutput()
	if err != nil {
		t.Fatalf("policyctl status: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "LiveCanaryGood") ||
		!strings.Contains(string(out), "history[") {
		t.Errorf("policyctl status output:\n%s", out)
	}
}
