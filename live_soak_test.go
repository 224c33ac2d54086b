package softqos

import (
	"testing"
	"time"

	"softqos/internal/faults"
	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/telemetry"
)

// liveSoakPlan batters the coordinator's outbound management traffic:
// probabilistic drops, short delays, duplicates, reorders, and the
// occasional sever that tears down the node's live TCP connections so
// the transport's reconnect path runs for real.
func liveSoakPlan() *FaultPlan {
	return &FaultPlan{
		Seed: 42,
		Rules: []faults.Rule{
			{Name: "chaos-drop", Kind: faults.KindDrop, Prob: 0.10},
			{Name: "chaos-delay", Kind: faults.KindDelay, Prob: 0.10,
				Delay: faults.Duration(time.Millisecond), Jitter: faults.Duration(2 * time.Millisecond)},
			{Name: "chaos-dup", Kind: faults.KindDuplicate, Prob: 0.05},
			{Name: "chaos-reorder", Kind: faults.KindReorder, Prob: 0.05},
			{Name: "chaos-sever", Kind: faults.KindSever, Prob: 0.005},
		},
	}
}

// TestLiveSoak drives >=200 violation episodes over real TCP through
// the fault-injection transport, kills and restarts the host manager
// mid-run on the same port, and asserts the resilience invariant that
// the sim soak pins: every episode recovers or is explicitly
// abandoned — zero silent stalls — while the transport's retry and
// reconnect machinery visibly does its job.
func TestLiveSoak(t *testing.T) {
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

	lm, err := NewLiveHostManager("127.0.0.1:0", manager.DefaultHostRules)
	if err != nil {
		t.Fatal(err)
	}
	mgrAddr := lm.Addr()

	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	reg := telemetry.NewRegistry(wall)
	tracer := telemetry.NewTracer(wall)
	coord := NewLiveCoordinatorFaults(Identity{
		Host: "live-host", PID: 4242, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), mgrAddr, liveSoakPlan(), Kit{Metrics: reg, Tracer: tracer})
	defer coord.Close()

	fps := NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	coord.AddActuator(&instrument.FuncActuator{Name: "frame_skip",
		Fn: func(...string) error { return nil }})
	coord.SetNotifyInterval(0)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}

	// One episode = slam the frame rate out of the policy band, then
	// restore it: the violation trace opens and resolves locally in the
	// coordinator while the reports cross the faulty wire.
	episode := func() {
		coord.Sync(func() { jit.Set(0.3); buf.Set(12); fps.Set(10) })
		coord.Sync(func() { fps.Set(25) })
	}
	// Sends are synchronous on the coordinator, but the manager's
	// dispatcher processes deliveries asynchronously (and injected
	// delays/reorders hold messages for a while) — poll instead of
	// asserting the instant the send loop ends.
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	managerHeartbeats := func(m *LiveHostManager) uint64 {
		var n uint64
		m.Sync(func() { n = m.Manager().HeartbeatsSeen })
		return n
	}

	// Phase 1: chaos against a healthy manager, with periodic
	// heartbeats crossing the wire.
	for i := 0; i < 100; i++ {
		episode()
		if i%10 == 0 {
			coord.Sync(func() { _ = coord.Heartbeat() })
		}
	}
	waitFor("a violation to survive the faulty wire to the manager",
		func() bool { return lm.Violations() > 0 })
	waitFor("a heartbeat to reach the manager",
		func() bool { return managerHeartbeats(lm) > 0 })

	// Phase 2: hard failure — the manager process dies. Sends fail
	// through the typed-error retry path until it comes back.
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		episode()
	}

	// Phase 3: the manager restarts on the same port with empty
	// tracking tables; heartbeats re-adopt the process and violation
	// reports flow again over fresh connections.
	lm2, err := NewLiveHostManager(mgrAddr, manager.DefaultHostRules)
	if err != nil {
		t.Fatal(err)
	}
	defer lm2.Close()
	for i := 0; i < 100; i++ {
		episode()
		if i%10 == 0 {
			coord.Sync(func() { _ = coord.Heartbeat() })
		}
	}

	// Drain: injection off, steady compliance; every open episode must
	// close.
	coord.ClearFaults()
	deadline := time.Now().Add(10 * time.Second)
	for tracer.Open() > 0 && time.Now().Before(deadline) {
		coord.Sync(func() { fps.Set(25) })
		time.Sleep(5 * time.Millisecond)
	}

	if got := tracer.Completed(); got < 200 {
		t.Errorf("completed episodes = %d, want >= 200", got)
	}
	if open := tracer.Open(); open != 0 {
		t.Errorf("%d episodes still open after drain — silent stall", open)
	}
	for _, tr := range tracer.Traces() {
		if _, ok := tr.TimeToRecovery(); !ok && !tr.Abandoned {
			t.Errorf("trace %s/%s neither recovered nor abandoned", tr.Subject, tr.Policy)
		}
	}
	counts := coord.FaultCounts()
	if len(counts) == 0 {
		t.Error("fault transport injected nothing")
	}
	retries, reconnects, sendFailed := coord.Resilience()
	if retries == 0 {
		t.Error("manager restart produced no send retries")
	}
	if sendFailed == 0 {
		t.Error("manager-down window produced no exhausted sends")
	}
	// Severs tore down live connections and/or the restart forced a
	// redial of a previously-dialed peer.
	if reconnects == 0 {
		t.Error("no reconnect recorded despite severs and a manager restart")
	}
	// The restarted manager self-healed its tracking tables: the
	// unknown process's heartbeat re-adopted it and reports resumed.
	waitFor("a violation to reach the restarted manager",
		func() bool { return lm2.Violations() > 0 })
	waitFor("a heartbeat to reach the restarted manager (re-adoption path)",
		func() bool { return managerHeartbeats(lm2) > 0 })
	t.Logf("episodes=%d injected=%v retries=%d reconnects=%d sendFailed=%d",
		tracer.Completed(), counts, retries, reconnects, sendFailed)
}

// TestLiveCoordinatorKitReachesTransportAndFaults: the kit given to
// NewLiveCoordinatorFaults reaches the transport node and the fault
// injector, not only the embedded Coordinator (whose own SetTelemetry
// would wire the coordinator alone): "msg.net.*" and "faults.injected.*"
// register in the kit's registry, and a dropped violation report leaves
// a fault span on the kit's tracer.
func TestLiveCoordinatorKitReachesTransportAndFaults(t *testing.T) {
	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	reg, tracer := telemetry.NewRegistry(wall), telemetry.NewTracer(wall)
	plan := &FaultPlan{Seed: 1, Rules: []faults.Rule{
		{Name: "drop-violations", Kind: faults.KindDrop, Types: []string{"violation"}}}}
	id := Identity{Host: "live-host", PID: 4242, Executable: "mpeg_play", Application: "VideoApplication"}
	coord := NewLiveCoordinatorFaults(id, LiveAgentAddr, LiveHostManagerAddr, plan,
		Kit{Metrics: reg, Tracer: tracer})
	defer coord.Close()

	spec, err := policy.Compile(mustParse(Example1Policy), map[string]string{
		"frame_rate": "fps_sensor", "jitter_rate": "jitter_sensor", "buffer_size": "buffer_sensor"})
	if err != nil {
		t.Fatal(err)
	}
	fps := NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.Sync(func() {
		coord.AddSensor(fps)
		coord.AddSensor(jit)
		coord.AddSensor(buf)
		coord.SetNotifyInterval(0)
		if err := coord.InstallPolicies([]msg.PolicySpec{spec}); err != nil {
			t.Error(err)
		}
		jit.Set(0.3)
		buf.Set(12)
		fps.Set(10) // out of the 25±2 band: a violation report the plan drops
	})

	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if _, ok := counters["msg.net.sent"]; !ok {
		t.Error("msg.net.sent not registered: the kit did not reach the transport node")
	}
	if counters["faults.injected.drop"] == 0 {
		t.Errorf("faults.injected.drop = %d, want the dropped violation counted", counters["faults.injected.drop"])
	}
	faultSpans := 0
	for _, tr := range tracer.TracesSnapshot() {
		for _, sp := range tr.Spans {
			if sp.Stage == telemetry.StageFault {
				faultSpans++
			}
		}
	}
	if faultSpans == 0 {
		t.Error("no fault span on the kit's tracer")
	}
}
