// Live mode: qosd -live runs the exact same management stack as the
// simulator — internal/manager's HostManager with its inference engine
// and resource managers, the policy agent, the instrumented coordinator
// — over real TCP under the wall clock.
//
// One process, full session (default):
//
//	qosd -live -duration 5s [-metrics]
//
// starts a policy agent node, a host-manager node and an instrumented
// "player" workload on loopback, starves the player, and reports the
// control loop closing: violation reports → rule firings → CPU boosts →
// saturation → a frame_skip adaptation directive → recovery.
//
// Multi-process session (one role per OS process):
//
//	qosd -live -role agent   -listen 127.0.0.1:7001
//	qosd -live -role manager -listen 127.0.0.1:7002
//	qosd -live -role workload -agent-addr 127.0.0.1:7001 \
//	     -manager-addr 127.0.0.1:7002 -duration 5s
//
// The agent and manager roles serve until interrupted.
//
// With -policy-server ADDR the agent and all roles additionally serve
// the policy repository over TCP: policyctl push starts a canary
// rollout whose deltas reach the running workload without a restart,
// bake against live SLO compliance (single-process session), and
// promote or roll back automatically; policyctl status/rollback
// inspect and abort it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"softqos"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

var (
	live     = flag.Bool("live", false, "run in live mode (TCP + wall clock) instead of simulating")
	role     = flag.String("role", "all", "live role: all|agent|manager|workload")
	listen   = flag.String("listen", "127.0.0.1:0", "listen address for the agent and manager roles")
	agentTCP = flag.String("agent-addr", "", "policy agent TCP address (workload role)")
	mgrTCP   = flag.String("manager-addr", "", "host manager TCP address (workload role)")
	httpAddr = flag.String("http", "", "serve /metrics, /debug/qos and /debug/qos/chrome on this address (live mode)")

	policyTCP = flag.String("policy-server", "",
		"serve the policy repository on this address: policyctl push/status/rollback plus live delta distribution to the agent (agent and all roles)")
	bake = flag.Duration("bake", 15*time.Second, "canary bake period for live policy rollouts (-policy-server)")
)

// serveExport starts the opt-in observability listener for a live role.
// Returns a closer (no-op when -http is unset). Live mode gets the full
// kit — Go runtime gauges, pprof, a wall-clock flight recorder and the
// SLO endpoints; sim mode never reaches this path, so deterministic
// snapshots see none of these metric names.
func serveExport(reg *telemetry.Registry, tracer *telemetry.Tracer, extra ...export.Option) func() {
	if *httpAddr == "" {
		return func() {}
	}
	var opts []export.Option
	stopSampler := func() {}
	if tracer != nil {
		// Live processes run indefinitely; the tracer evicts oldest at
		// telemetry.DefaultMaxTraces, surfaced as telemetry.traces.evicted.
		tracer.SetMetrics(reg)
	}
	if reg != nil {
		export.RegisterRuntimeGauges(reg)
		tl := telemetry.NewTimeline(reg)
		tl.EnableRollup()
		var miner *telemetry.LoopMiner
		if tracer != nil {
			miner = telemetry.NewLoopMiner(reg)
		}
		stopSampler = export.StartSampler(time.Second, tl, miner, tracer)
		opts = append(opts, export.WithTimeline(tl))
	}
	opts = append(opts,
		export.WithPprof(),
		export.WithSLOTargets([]telemetry.SLOTarget{{
			Policy:    "NotifyQoSViolation",
			Objective: "frame_rate = 25(+2)(-2) and jitter_rate < 1.25",
		}}),
	)
	opts = append(opts, extra...)
	srv, err := export.Serve(*httpAddr, reg, tracer, opts...)
	checkLive(err)
	fmt.Printf("observability endpoints on http://%s/metrics, /debug/qos[/slo|/timeline|/dashboard] and /debug/pprof/\n", srv.Addr())
	return func() {
		stopSampler()
		srv.Close()
	}
}

// liveEventLog creates the wall-clock structured event log a live role
// records on and serves at /debug/qos/logs. Nil when -http is unset:
// nothing would expose the ring, and a nil logger makes every record
// site a no-op, so the disabled path costs nothing.
func liveEventLog(now func() time.Duration, reg *telemetry.Registry) *softqos.EventLogger {
	if *httpAddr == "" {
		return nil
	}
	lg := softqos.NewEventLogger(telemetry.Clock(now), 0)
	lg.SetMetrics(reg)
	return lg
}

// liveRepository builds the paper's video-application information model
// with the Example 1 policy — the repository the live agent serves
// from. The directory is returned too so -policy-server can expose it
// over TCP.
func liveRepository() (*softqos.RepositoryService, *softqos.Directory) {
	dir := softqos.NewDirectory()
	svc := softqos.NewRepositoryService(dir)
	checkLive(mgmt.DefineVideoModel(svc))
	checkLive(softqos.NewAdmin(svc).AddPolicy(softqos.Example1Policy, softqos.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}))
	return svc, dir
}

// servePolicy starts the live policy-distribution server when
// -policy-server is set: the repository TCP endpoint policyctl's
// push/status/rollback verbs talk to, with accepted generations pushed
// to the running agent over the watch/notify hub. It records on kit —
// rollout decisions on its tracer. The caller still wires the rollout
// gate (GateOn) to whichever tracer observes the canary's violations.
func servePolicy(agentAddr string, dir *softqos.Directory, svc *softqos.RepositoryService,
	kit softqos.Kit) *softqos.LivePolicyServer {
	if *policyTCP == "" {
		return nil
	}
	lps, err := softqos.ServeLivePolicy(*policyTCP, dir, svc, softqos.RolloutConfig{Bake: *bake, Kit: kit})
	checkLive(err)
	lps.Watch(agentAddr)
	lps.SetHosts("live-host")
	fmt.Printf("policy repository on %s (policyctl push/status/rollback -server %s)\n",
		lps.Addr(), lps.Addr())
	return lps
}

// rolloutOpts exposes a policy server's rollout state on /debug/qos.
func rolloutOpts(lps *softqos.LivePolicyServer) []export.Option {
	if lps == nil {
		return nil
	}
	return []export.Option{export.WithRollout(lps.Rollout())}
}

func runLive() {
	switch *role {
	case "agent":
		svc, dir := liveRepository()
		agent, err := softqos.ServeLiveAgent(*listen, svc)
		checkLive(err)
		defer agent.Close()
		start := time.Now()
		now := func() time.Duration { return time.Since(start) }
		reg := telemetry.NewRegistry(now)
		agent.SetTelemetry(reg)
		evlog := liveEventLog(now, reg)
		agent.SetEventLog(evlog)
		var tracer *telemetry.Tracer
		if *policyTCP != "" {
			tracer = telemetry.NewTracer(now)
		}
		lps := servePolicy(agent.Addr(), dir, svc, softqos.Kit{Metrics: reg, Tracer: tracer, Log: evlog})
		if lps != nil {
			// The standalone agent process observes no violations itself,
			// so its bakes judge on an empty compliance feed (promote
			// unless rolled back by hand); run -role all for SLO gating.
			// The tracer still records every rollout decision.
			lps.GateOn(tracer, now, nil)
			defer lps.Close()
		}
		defer serveExport(reg, tracer,
			append(rolloutOpts(lps), export.WithEventLog(evlog))...)()
		fmt.Printf("policy agent listening on %s\n", agent.Addr())
		waitForInterrupt()
		regs, fails := agent.Stats()
		fmt.Printf("registrations: %d ok, %d refused\n", regs, fails)
		if lps != nil {
			cs := agent.CacheStats()
			fmt.Printf("policy generations: hub %d, agent cache %d (%d deltas applied, %d refreshes)\n",
				lps.Generation("mpeg_play"), agent.Generation("mpeg_play"), cs.Applied, cs.Refreshes)
		}

	case "manager":
		lm, err := softqos.NewLiveHostManager(*listen, manager.OverloadHostRules)
		checkLive(err)
		defer lm.Close()
		start := time.Now()
		reg := telemetry.NewRegistry(func() time.Duration { return time.Since(start) })
		tracer := telemetry.NewTracer(func() time.Duration { return time.Since(start) })
		lm.SetTelemetry(reg, tracer)
		evlog := liveEventLog(func() time.Duration { return time.Since(start) }, reg)
		lm.SetEventLog(evlog)
		defer serveExport(reg, tracer, export.WithEventLog(evlog))()
		lm.SetOnAdjust(func(a runtime.Adjustment) {
			fmt.Printf("adjust pid %d: %s -> %d\n", a.PID, a.What, a.Value)
		})
		fmt.Printf("host manager listening on %s\n", lm.Addr())
		waitForInterrupt()
		fmt.Printf("violations handled: %d (overshoots %d, adjustments %d)\n",
			lm.Violations(), lm.Overshoots(), lm.AdjustmentCount())

	case "workload":
		if *agentTCP == "" || *mgrTCP == "" {
			fmt.Fprintln(os.Stderr, "qosd: -role workload needs -agent-addr and -manager-addr")
			os.Exit(2)
		}
		start := time.Now()
		now := func() time.Duration { return time.Since(start) }
		liveWorkload(*agentTCP, *mgrTCP, nil, nil,
			softqos.Kit{Tracer: telemetry.NewTracer(now), Log: liveEventLog(now, nil)}, now)

	case "all":
		svc, dir := liveRepository()
		agent, err := softqos.ServeLiveAgent("127.0.0.1:0", svc)
		checkLive(err)
		defer agent.Close()
		lm, err := softqos.NewLiveHostManager("127.0.0.1:0", manager.OverloadHostRules)
		checkLive(err)
		defer lm.Close()
		fmt.Printf("policy agent on %s, host manager on %s\n", agent.Addr(), lm.Addr())

		// One session clock for the registry, the tracer and the log.
		start := time.Now()
		now := func() time.Duration { return time.Since(start) }
		reg := telemetry.NewRegistry(now)
		kit := softqos.Kit{Metrics: reg, Tracer: telemetry.NewTracer(now), Log: liveEventLog(now, reg)}
		agent.SetTelemetry(reg)
		agent.SetEventLog(kit.Log)
		// The host manager records its diagnosis spans and rule
		// explanations on the tracer the workload's coordinator records
		// on, so each episode exports as one causal tree.
		lm.SetTelemetry(reg, kit.Tracer)
		lm.SetEventLog(kit.Log)
		lps := servePolicy(agent.Addr(), dir, svc, kit)
		if lps != nil {
			defer lps.Close()
		}
		liveWorkload(agent.Addr(), lm.Addr(), lm, lps, kit, now)

	default:
		fmt.Fprintf(os.Stderr, "qosd: unknown live role %q\n", *role)
		os.Exit(2)
	}
}

// liveWorkload runs the instrumented player: it registers, decodes at a
// starved ~10 fps against the 25±2 policy, and lets the managers drive
// it back into the band — first by CPU boosts, then (at saturation) by a
// frame_skip adaptation directive its actuator applies. lm, lps and
// kit.Metrics are non-nil only in the single-process session; kit.Tracer
// is never nil. now is the session clock kit records on.
func liveWorkload(agentAddr, managerAddr string, lm *softqos.LiveHostManager,
	lps *softqos.LivePolicyServer, kit softqos.Kit, now func() time.Duration) {
	// With -faults, the workload's outbound management traffic crosses
	// a fault-injection transport: the same plan format as sim mode,
	// applied to real TCP (severs cut live connections, crash windows
	// exercise the retry/reconnect path).
	plan := loadFaults()
	coord := softqos.NewLiveCoordinatorFaults(softqos.Identity{
		Host: "live-host", PID: os.Getpid(), Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agentAddr, managerAddr, plan, kit)
	defer coord.Close()
	reg, tracer := kit.Metrics, kit.Tracer
	if lps != nil {
		// Canary bakes are judged on this process's own violation
		// episodes: a pushed policy the workload cannot satisfy burns its
		// error budget here and rolls back automatically.
		lps.GateOn(tracer, now, nil)
	}
	defer serveExport(reg, tracer,
		append(rolloutOpts(lps), export.WithEventLog(kit.Log))...)()

	fps := softqos.NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := softqos.NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := softqos.NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)

	// The player's adaptation knob: skipping frames restores the
	// delivered rate into the policy band.
	rate := 10.0
	coord.AddActuator(softqos.NewFuncActuator("frame_skip", func(args ...string) error {
		fmt.Printf("t=%v actuate frame_skip %s: degrading gracefully\n",
			now().Round(time.Millisecond), strings.Join(args, " "))
		rate = 23.5
		return nil
	}))
	coord.SetNotifyInterval(0)

	t0 := time.Now()
	checkLive(coord.Register())
	fmt.Printf("registered in %v; policies: %v\n",
		time.Since(t0).Round(time.Microsecond), coord.Policies())

	fmt.Printf("decoding at %.0f fps against the 25±2 policy ...\n", rate)
	deadline := time.Now().Add(*duration)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		coord.Sync(func() {
			jit.Set(0.3)
			buf.Set(12) // frames queued locally: a host fault
			fps.Set(rate)
		})
		time.Sleep(20 * time.Millisecond)
		for _, tr := range tracer.TracesSnapshot() {
			if _, ok := tr.TimeToRecovery(); ok {
				recovered = true
			}
		}
	}

	traces := tracer.TracesSnapshot()
	fmt.Printf("violation episodes: %d\n", len(traces))
	for _, tr := range traces {
		if ttr, ok := tr.TimeToRecovery(); ok {
			fmt.Printf("recovered in %v\n", ttr.Round(time.Millisecond))
		}
	}
	if !recovered {
		fmt.Println("no recovery within the deadline")
	}
	if plan != nil {
		counts := coord.FaultCounts()
		retries, reconnects, sendFailed := coord.Resilience()
		fmt.Printf("faults injected: %v; transport retries %d, reconnects %d, failed sends %d\n",
			counts, retries, reconnects, sendFailed)
	}
	if lm != nil {
		fmt.Printf("manager: %d violations handled, %d resource adjustments\n",
			lm.Violations(), lm.AdjustmentCount())
		for _, a := range lm.Adjustments() {
			fmt.Printf("  pid %d: %s -> %d\n", a.PID, a.What, a.Value)
		}
	}
	if lps != nil {
		for _, st := range lps.Rollout().History() {
			fmt.Printf("rollout generation %d (%s@%s) %s: %s\n",
				st.Generation, st.Policy, st.Executable, st.State, st.Reason)
		}
	}
	if *metrics && reg != nil {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			checkLive(err)
		}
		fmt.Println()
		checkLive(telemetry.WriteTraceTable(os.Stdout, traces))
	}
	if !recovered {
		os.Exit(1)
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

func checkLive(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
