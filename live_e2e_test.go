package softqos

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
)

// TestLiveEndToEndControlLoop runs the complete adaptive control loop of
// the paper over real TCP under the wall clock, using the exact same
// manager stack as the simulator: an instrumented process registers with
// the policy agent, violates its frame-rate expectation, the host
// manager's rules fire and boost the process's CPU allocation through
// the resource managers, saturation triggers a request-adaptation
// directive back to the process's actuator, the application degrades
// gracefully, and the violation trace resolves.
func TestLiveEndToEndControlLoop(t *testing.T) {
	// Policy repository with the paper's video model and Example 1 policy.
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

	// The unified host manager with the overload rule set: persistent
	// starvation saturates the CPU boost, then asks the application to
	// adapt (frame_skip) instead of thrashing priorities.
	lm, err := NewLiveHostManager("127.0.0.1:0", manager.OverloadHostRules)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	// The instrumented process: Example 1 sensors plus the frame_skip
	// actuator through which the manager requests graceful degradation.
	start := time.Now()
	tracer := telemetry.NewTracer(func() time.Duration { return time.Since(start) })
	coord := NewLiveCoordinator(Identity{
		Host: "live-host", PID: 4242, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), lm.Addr(), Kit{Tracer: tracer})
	defer coord.Close()

	fps := NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	// The application's adaptation knob: skipping frames lets the decoder
	// keep pace, restoring the delivered rate into the policy band.
	rate := 10.0 // starved decode rate, far below the 25±2 expectation
	coord.AddActuator(&instrument.FuncActuator{Name: "frame_skip", Fn: func(args ...string) error {
		skip, _ := strconv.ParseFloat(args[0], 64)
		rate = 25 - skip/3 // within the ±2 tolerance for the requested skip
		return nil
	}})
	coord.SetNotifyInterval(0)

	// Register over TCP: policies travel repository → agent → coordinator.
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	if ps := coord.Policies(); len(ps) != 1 || ps[0] != "NotifyQoSViolation" {
		t.Fatalf("policies = %v", ps)
	}

	// Drive the starved application. Sensor updates run inside Sync so
	// they serialize with inbound actuate directives on the dispatcher;
	// each violating update reports to the host manager, whose rules
	// boost the live process handle until saturation flips the strategy
	// to request-adaptation.
	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		coord.Sync(func() {
			jit.Set(0.3)
			buf.Set(12) // frames queue up: starvation is local
			fps.Set(rate)
		})
		time.Sleep(20 * time.Millisecond)
		for _, tr := range tracer.Traces() {
			if _, ok := tr.TimeToRecovery(); ok {
				recovered = true
			}
		}
	}

	// Violation reports crossed the wire and were diagnosed.
	if lm.Violations() == 0 {
		t.Fatal("no violation reached the live host manager")
	}
	// The rules fired: the CPU resource manager boosted the live process
	// handle (the embedding daemon would mirror this onto the real OS
	// process), eventually to saturation.
	adjs := lm.Adjustments()
	if len(adjs) == 0 {
		t.Fatal("no resource adjustments applied")
	}
	boosted := false
	for _, a := range adjs {
		if a.PID == 4242 && a.What == "boost" && a.Value >= 40 {
			boosted = true
		}
	}
	if !boosted {
		t.Errorf("boost never saturated: adjustments = %+v", adjs)
	}
	// The actuate directive arrived and the application adapted.
	if rateNow := func() (v float64) { coord.Sync(func() { v = rate }); return }(); rateNow < 23 {
		t.Errorf("application never adapted: rate = %v", rateNow)
	}
	// And the control loop closed: the violation trace resolved.
	if !recovered {
		t.Fatal("violation trace never resolved (no recovery)")
	}
	var adaptations uint64
	lm.Sync(func() { adaptations = lm.Manager().Adaptations })
	if adaptations == 0 {
		t.Error("host manager recorded no adaptations")
	}
}

// unreachableStore fails every repository search, so the agent's policy
// lookup errors on any registration.
type unreachableStore struct{ repository.LocalStore }

func (unreachableStore) Search(repository.DN, repository.Scope, repository.Filter) ([]*repository.Entry, error) {
	return nil, errors.New("repository unreachable")
}

// TestLiveRegistrationRefused pins the explicit-failure contract over
// TCP: when the agent cannot resolve policies, the registering process
// gets a Nack — surfaced as an error from Register — rather than a
// silently empty policy set that would leave it unknowingly unmanaged.
func TestLiveRegistrationRefused(t *testing.T) {
	agent, err := ServeLiveAgent("127.0.0.1:0", repository.NewService(unreachableStore{}))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	coord := NewLiveCoordinator(Identity{
		Host: "live-host", PID: 99, Executable: "mpeg_play",
		Application: "VideoApplication",
	}, agent.Addr(), agent.Addr(), Kit{})
	defer coord.Close()

	err = coord.Register()
	if err == nil {
		t.Fatal("registration succeeded against an unreachable repository")
	}
	if !strings.Contains(err.Error(), "registration refused") ||
		!strings.Contains(err.Error(), "repository unreachable") {
		t.Errorf("error = %v", err)
	}
	if len(coord.Policies()) != 0 {
		t.Errorf("policies installed after refusal: %v", coord.Policies())
	}
	regs, fails := agent.Stats()
	if regs != 0 || fails != 1 {
		t.Errorf("agent stats: registrations=%d failures=%d", regs, fails)
	}
}
