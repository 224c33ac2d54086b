// Command qosbench regenerates the paper's evaluation tables and figures
// plus the ablation experiments listed in DESIGN.md.
//
// Usage:
//
//	qosbench -experiment all|fig3|overhead|locate|admin|settle|dynamic|trace|faults|wire|fleet
//	         [-warmup 30s] [-measure 3m] [-seed 1]
//
// Output is aligned text; every table states the paper's reference values
// where the paper reports them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"softqos"
	"softqos/internal/faults"
	"softqos/internal/instrument"
	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/repository"
	"softqos/internal/scenario"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
	"softqos/internal/video"
)

var (
	experiment = flag.String("experiment", "all", "fig3|overhead|locate|admin|settle|dynamic|overload|proactive|scale|webapp|trace|faults|slo|wire|fleet|all")
	warmup     = flag.Duration("warmup", 30*time.Second, "virtual warmup before measurement")
	measure    = flag.Duration("measure", 3*time.Minute, "virtual measurement window")
	seed       = flag.Int64("seed", 1, "simulation seed")
	exportTo   = flag.String("export", "", "trace experiment: dump per-load telemetry (metrics.prom, qos.json, trace.json) under this directory")
)

func main() {
	flag.Parse()
	run := map[string]func(){
		"fig3":      fig3,
		"overhead":  overhead,
		"locate":    locate,
		"admin":     admin,
		"settle":    settle,
		"dynamic":   dynamic,
		"overload":  overload,
		"proactive": proactive,
		"scale":     scale,
		"webapp":    webappExp,
		"trace":     traceExp,
		"faults":    faultsExp,
		"slo":       sloExp,
		"wire":      wireExp,
		"fleet":     fleetExp,
	}
	if *experiment == "all" {
		for _, name := range []string{"fig3", "overhead", "locate", "admin", "settle", "dynamic", "overload", "proactive", "scale", "webapp", "trace", "faults", "slo", "wire", "fleet"} {
			run[name]()
			fmt.Println()
		}
		return
	}
	fn, ok := run[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "qosbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	fn()
}

// fig3 reproduces Figure 3: video playback throughput vs CPU load.
func fig3() {
	fmt.Println("=== Figure 3: Video Playback Throughput Comparison ===")
	fmt.Println("mean playback throughput (FPS) vs client CPU load average;")
	fmt.Println("paper: normal scheduling collapses (~29 -> ~5 FPS), with the")
	fmt.Println("resource manager throughput stays ~28 FPS at every load.")
	fmt.Println()
	rows := scenario.Figure3(nil, *warmup, *measure, *seed)
	fmt.Printf("%-12s %-12s %-16s %-20s\n", "load(target)", "load(meas)", "normal sched FPS", "with resource mgr FPS")
	for _, r := range rows {
		fmt.Printf("%-12.2f %-12.2f %-16.2f %-20.2f\n",
			r.OfferedLoad, r.MeasuredLA, r.NormalFPS, r.ManagedFPS)
	}
}

// overhead reproduces the in-text overhead table: initialisation +
// registration cost and the per-pass instrumentation cost.
func overhead() {
	fmt.Println("=== Instrumentation overhead (paper: ~400 us init, ~11 us/pass on UltraSparc) ===")

	// Init: one instrumented process per iteration registering with a
	// live policy agent over TCP loopback — a fresh transport node, the
	// Example 1 sensors, and LiveCoordinator.Register: Register to the
	// agent, policy lookup, PolicySet back, install into the sensors.
	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	must(mgmt.DefineVideoModel(svc))
	p, err := policy.ParseOne(scenario.Example1Policy)
	must(err)
	must(svc.StorePolicy(p, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}))

	agent, err := softqos.ServeLiveAgent("127.0.0.1:0", svc)
	must(err)
	defer agent.Close()

	const initIters = 500
	start := time.Now()
	for i := 0; i < initIters; i++ {
		lc := softqos.NewLiveCoordinator(softqos.Identity{Host: "bench", PID: i + 1,
			Executable: "mpeg_play", Application: "VideoApplication", UserRole: "viewer"},
			agent.Addr(), "", softqos.Kit{})
		clock := lc.WallClock()
		lc.AddSensor(softqos.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second))
		lc.AddSensor(softqos.NewJitterSensor("jitter_sensor", "jitter_rate", clock, 33333*time.Microsecond))
		lc.AddSensor(softqos.NewValueSensor("buffer_sensor", "buffer_size", nil))
		must(lc.Register())
		if len(lc.Policies()) != 1 {
			must(fmt.Errorf("registration installed %d policies, want 1", len(lc.Policies())))
		}
		lc.Close()
	}
	initCost := time.Since(start) / initIters

	// Per-pass: display probe with the policy installed, QoS met.
	var now time.Duration
	clock := instrument.Clock(func() time.Duration { return now })
	coord := instrument.NewCoordinator(msg.Identity{PID: 1, Executable: "mpeg_play"},
		clock, func(string, msg.Message) error { return nil }, "/agent", "/mgr")
	fps := instrument.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second)
	jit := instrument.NewJitterSensor("jitter_sensor", "jitter_rate", clock, 33333*time.Microsecond)
	buf := instrument.NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	attrSensor := map[string]string{"frame_rate": "fps_sensor",
		"jitter_rate": "jitter_sensor", "buffer_size": "buffer_sensor"}
	spec, err := policy.Compile(p, attrSensor)
	must(err)
	must(coord.InstallPolicies([]msg.PolicySpec{spec}))

	const passIters = 2_000_000
	start = time.Now()
	for i := 0; i < passIters; i++ {
		now += 33333 * time.Microsecond
		fps.Tick()
		jit.Tick()
	}
	passCost := time.Since(start) / passIters

	fmt.Printf("%-42s %-14s %s\n", "measurement", "this repo", "paper (UltraSparc, 2000)")
	fmt.Printf("%-42s %-14s %s\n", "process init + registration", initCost.Round(time.Microsecond).String(), "~400 us")
	fmt.Printf("%-42s %-14s %s\n", "one instrumentation pass (QoS met)", passCost.String(), "~11 us")
}

// locate exercises violation location (ablation A1): three fault kinds,
// the diagnosis each produced, and whether playback recovered.
func locate() {
	fmt.Println("=== A1: Violation location (local CPU vs server vs network) ===")
	fmt.Printf("%-14s %-12s %-12s %-12s %-10s %-10s\n",
		"injected", "escalations", "server-diag", "network-diag", "local-adj", "recovered")

	report := func(name string, sys *scenario.System, res scenario.Result) {
		fmt.Printf("%-14s %-12d %-12d %-12d %-10d %-10v\n",
			name, res.Escalations, res.ServerFaults, res.NetworkFaults,
			res.CPUAdjustments, res.MeanFPS > 23)
		_ = sys
	}

	sys := scenario.Build(scenario.Config{Seed: *seed, Managed: true, ClientLoad: 9})
	report("local-cpu", sys, sys.Run(*warmup, *measure))

	sys = scenario.Build(scenario.Config{Seed: *seed, Managed: true, ServerLoad: 4,
		Stream: video.StreamConfig{ServerCost: 34 * time.Millisecond, DecodeCost: 10 * time.Millisecond}})
	report("server-cpu", sys, sys.Run(*warmup, *measure))

	sys = scenario.Build(scenario.Config{Seed: *seed, Managed: true, BackupRoute: true,
		Stream: video.StreamConfig{DecodeCost: 10 * time.Millisecond}})
	sys.Sim.RunFor(*warmup)
	sys.CongestNetwork(6.0)
	report("network", sys, sys.Run(0, *measure))
}

// admin runs the administrative-policy experiment (ablation A3).
func admin() {
	fmt.Println("=== A3: Administrative requirements (two sessions, 1.5 CPUs of demand) ===")
	fmt.Print(scenario.MultiAppTable(*seed, *warmup, *measure))
}

// settle measures convergence of the feedback loop for different boost
// step policies (ablation A2).
func settle() {
	fmt.Println("=== A2: Settling time after a load step (9 spinners at t=0) ===")
	fmt.Printf("%-26s %-14s %-14s\n", "boost rule", "settle time", "adjustments")
	for _, c := range []struct {
		name  string
		rules string
	}{
		{"fixed step 2", fixedStepRules(2)},
		{"fixed step 15", fixedStepRules(15)},
		{"proportional (default)", manager.DefaultHostRules},
	} {
		st, adjust := settlingTime(c.rules)
		stStr := "> 120s"
		if st >= 0 {
			stStr = st.Round(100 * time.Millisecond).String()
		}
		fmt.Printf("%-26s %-14s %-14d\n", c.name, stStr, adjust)
	}
}

func fixedStepRules(step int) string {
	return fmt.Sprintf(`
(deffacts host-thresholds (buffer-threshold 8))
(defrule local-cpu-starvation
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  =>
  (call boost-cpu ?p %d))
(defrule reclaim-on-overshoot
  (overshoot ?p ?policy)
  =>
  (call reclaim-cpu ?p 1))
`, step)
}

// settlingTime builds a managed scenario, lets it settle unloaded, slams
// 9 spinners onto the host and reports how long until the frame rate is
// back above 23 FPS sustained for 3 consecutive seconds.
func settlingTime(hostRules string) (time.Duration, int) {
	sys := scenario.Build(scenario.Config{Seed: *seed, Managed: true})
	must(sys.ClientHM.LoadRules(hostRules))
	sys.Sim.RunFor(30 * time.Second)
	loadgen.Offered(sys.ClientHost, 9)
	start := sys.Sim.Now()
	good := 0
	for sys.Sim.Now()-start < 120*1e9 {
		sys.Sim.RunFor(time.Second)
		if sys.FPS.Read() > 23 {
			good++
			if good >= 3 {
				return (sys.Sim.Now() - start).Duration() - 3*time.Second, sys.ClientHM.CPU().Adjustments
			}
		} else {
			good = 0
		}
	}
	return -1, sys.ClientHM.CPU().Adjustments
}

// dynamic shows reactive enforcement under a changing load profile and a
// mid-run QoS requirement change (ablation A6).
func dynamic() {
	fmt.Println("=== A6: Reactive enforcement under dynamic load; requirement change at t=150s ===")
	sys := scenario.Build(scenario.Config{Seed: *seed, Managed: true})
	loadgen.Profile(sys.ClientHost, []loadgen.Phase{
		{Load: 0, For: 30 * time.Second},
		{Load: 9, For: 60 * time.Second},
		{Load: 0, For: 30 * time.Second},
		{Load: 4, For: 120 * time.Second},
	})
	// At t=150s the session's requirement is relaxed to 12±2 (the policy
	// changes without restarting the application, Section 9).
	relaxed := strings.Replace(scenario.Example1Policy, "25(+2)(-2)", "12(+2)(-2)", 1)
	rp, err := policy.ParseOne(relaxed)
	must(err)
	spec, err := policy.Compile(rp, map[string]string{"frame_rate": "fps_sensor",
		"jitter_rate": "jitter_sensor", "buffer_size": "buffer_sensor"})
	must(err)
	sys.Sim.Schedule(150*1e9, func() {
		must(sys.Coord.InstallPolicies([]msg.PolicySpec{spec}))
	})

	fmt.Printf("%-8s %-8s %-8s %-8s %-8s\n", "t", "fps", "boost", "load", "buffer")
	for t := 0; t < 240; t += 10 {
		sys.Sim.RunFor(10 * time.Second)
		fmt.Printf("%-8s %-8.1f %-8d %-8.2f %-8d\n",
			sys.Sim.Now().Duration().Round(time.Second).String(),
			sys.FPS.Read(), sys.Client.Proc.Boost(),
			sys.ClientHost.LoadAvg(), sys.Client.Socket.Len())
	}
}

// overload runs the §10(iii) extension: a real-time codec holds 65% of
// the CPU, so priorities cannot save the stream. The overload rule set
// directs the application to degrade (skip frames) and renegotiates the
// session's expectation to the degraded rate.
func overload() {
	fmt.Println("=== A7: Overload handling (RT process holds 65% CPU; priorities cannot help) ===")
	fmt.Printf("%-22s %-8s %-6s %-14s %-12s %-12s %-10s\n",
		"rule set", "fps", "skip", "socket drops", "violations", "adaptations", "jitter@end")
	for _, c := range []struct {
		name  string
		rules string
	}{
		{"default (thrash)", ""},
		{"overload (degrade)", manager.OverloadHostRules},
	} {
		sys := scenario.Build(scenario.Config{Seed: *seed, Managed: true, RTLoad: 0.65, HostRules: c.rules})
		res := sys.Run(*warmup, *measure)
		fmt.Printf("%-22s %-8.2f %-6d %-14d %-12d %-12d %-10.2f\n",
			c.name, res.MeanFPS, sys.Client.Skip(), sys.Client.Socket.Dropped(),
			res.Violations, sys.ClientHM.Adaptations,
			res.Timeline[len(res.Timeline)-1].Jitter)
	}
}

// proactive runs the §10(iv) extension: reactive vs predictive
// enforcement under gradual degradation (page stealing) and under step
// load changes.
func proactive() {
	fmt.Println("=== A8: Proactive QoS (prediction horizon on policy conditions) ===")
	fmt.Printf("%-26s %-12s %-14s %-10s %-12s\n",
		"scenario", "horizon", "below-band(s)", "mean fps", "adjustments")
	for _, h := range []time.Duration{0, 5 * time.Second} {
		res := scenario.MemorySqueeze(scenario.Config{Seed: *seed, Managed: true,
			PredictionHorizon: h}, 2*time.Second, 200, *measure)
		fmt.Printf("%-26s %-12v %-14d %-10.2f %-12d\n",
			"gradual (memory squeeze)", h, res.BelowBand, res.MeanFPS, res.Adjustments)
	}
	for _, h := range []time.Duration{0, 3 * time.Second} {
		res := scenario.Ramp(scenario.Config{Seed: *seed, Managed: true,
			PredictionHorizon: h}, 5*time.Second, *measure)
		fmt.Printf("%-26s %-12v %-14d %-10.2f %-12d\n",
			"step loads (ramp)", h, res.BelowBand, res.MeanFPS, res.Adjustments)
	}
	fmt.Println("(prediction prevents violations when degradation is gradual;")
	fmt.Println(" step changes defeat trend extrapolation, as expected)")
}

// scale runs whole-domain deployments of increasing size and reports
// management outcomes plus simulator throughput.
func scale() {
	fmt.Println("=== Scale: one domain manager, N hosts x M managed sessions, load 2/host ===")
	fmt.Printf("%-10s %-10s %-10s %-10s %-12s %-12s %-14s\n",
		"hosts", "sessions", "mean fps", "min fps", "notifies", "adjustments", "sim events/s")
	for _, size := range []struct{ hosts, sessions int }{
		{2, 2}, {4, 2}, {8, 3}, {16, 4}, {32, 4},
	} {
		res := scenario.Scale(scenario.ScaleConfig{Seed: *seed, Hosts: size.hosts,
			SessionsPerHost: size.sessions, LoadPerHost: 2}, 20*time.Second, *measure)
		fmt.Printf("%-10d %-10d %-10.2f %-10.2f %-12d %-12d %-14.0f\n",
			size.hosts, size.sessions, res.MeanFPS, res.MinFPS,
			res.Notifies, res.Adjustments, float64(res.Events)/res.WallTime.Seconds())
	}
}

// webappExp shows application generality (the paper instrumented Apache):
// a web server's response-time policy enforced by the identical manager
// machinery, including recovery from a burst-induced bistable overload.
func webappExp() {
	fmt.Println("=== Generality: instrumented web server (response_time < 50ms), burst at t=warmup ===")
	fmt.Printf("%-10s %-14s %-14s %-12s %-12s %-10s\n",
		"managed", "latency(ms)", "backlog max", "served", "violations", "boost")
	for _, managed := range []bool{false, true} {
		r := scenario.WebScenario(*seed, 5, managed, *warmup, *measure)
		fmt.Printf("%-10v %-14.1f %-14d %-12d %-12d %-10d\n",
			managed, r.MeanLatencyMs, r.P100BacklogMax, r.Served, r.Violations, r.FinalBoost)
	}
}

// traceExp reports the time-to-recovery distribution of violation
// episodes — first sensor alarm to the coordinator seeing the policy
// satisfied again — across client background load points.
func traceExp() {
	fmt.Println("=== Violation traces: time-to-recovery vs client CPU load ===")
	fmt.Printf("%-8s %-10s %-8s %-10s %-10s %-10s %-10s %-10s\n",
		"load", "episodes", "open", "p50", "p95", "p99", "max", "spans/ep")
	for _, load := range []float64{3, 5, 7, 9} {
		sys := scenario.Build(scenario.Config{Seed: *seed, ClientLoad: load, Managed: true})
		sys.Run(*warmup, *measure)
		if *exportTo != "" {
			dir := filepath.Join(*exportTo, fmt.Sprintf("load%.0f", load))
			must(export.DumpFiles(dir, sys.Metrics, sys.Tracer))
		}
		ttr := telemetry.NewSketch()
		spans, open := 0, 0
		for _, tr := range sys.Tracer.Traces() {
			spans += len(tr.Spans)
			d, ok := tr.TimeToRecovery()
			if !ok {
				open++
				continue
			}
			ttr.ObserveDuration(d)
		}
		p50, p95, p99 := ttr.Quantiles()
		total := ttr.Count() + uint64(open)
		spansPer := 0.0
		if total > 0 {
			spansPer = float64(spans) / float64(total)
		}
		fmt.Printf("%-8.0f %-10d %-8d %-10s %-10s %-10s %-10s %-10.1f\n",
			load, total, open, durMS(p50), durMS(p95), durMS(p99), durMS(ttr.Max()), spansPer)
	}
	fmt.Println("(time from first sensor alarm to the policy holding again;")
	fmt.Println(" open = episodes still violated when the run ended)")
}

// faultsExp reports the chaos-resilience curve: seeded soak runs at
// rising fault-injection rates, showing how time-to-recovery degrades
// and how many episodes end in explicit abandonment (liveness eviction,
// localization timeout) rather than recovery. The invariant the soak
// harness enforces — no silently stalled episode — shows up as open=0
// on every row.
func faultsExp() {
	fmt.Println("=== Fault injection: time-to-recovery vs fault rate (seeded soak, 200 episodes) ===")
	fmt.Printf("%-6s %-9s %-10s %-10s %-5s %-8s %-9s %-10s %-10s %-10s\n",
		"rate", "episodes", "recovered", "abandoned", "open", "evicted", "injected", "p50", "p95", "max")
	for _, rate := range []float64{0, 0.05, 0.15, 0.30} {
		cfg := scenario.SoakConfig{Seed: *seed, Episodes: 200, FaultRate: rate}
		if rate == 0 {
			// An empty plan, not "use the default rate": the baseline row.
			cfg.Plan = &faults.Plan{Seed: *seed}
		}
		res := scenario.Soak(cfg)
		injected := uint64(0)
		for _, n := range res.Injected {
			injected += n
		}
		fmt.Printf("%-6.2f %-9d %-10d %-10d %-5d %-8d %-9d %-10s %-10s %-10s\n",
			rate, res.Episodes, res.Recovered, res.Abandoned, res.Open, res.Evicted, injected,
			durMS(float64(res.TTRp50)), durMS(float64(res.TTRp95)), durMS(float64(res.TTRMax)))
	}
	fmt.Println("(abandoned = episodes closed with a traced reason — agent eviction or")
	fmt.Println(" localization timeout; open > 0 would mean a silently stalled episode)")
}

// sloExp sweeps client load and reports the compliance curve: what
// fraction of the run the policy actually held, how much error budget
// the violations burned, and how fast the control loop's stages turned.
func sloExp() {
	fmt.Println("=== SLO compliance vs client CPU load (target 95% of time in policy) ===")
	fmt.Printf("%-8s %-12s %-12s %-10s %-10s %-10s %-12s %-12s %-12s\n",
		"load", "compliance", "viol-min", "episodes", "fast-burn", "slow-burn", "detect p95", "locate p95", "adapt p95")
	for _, load := range []float64{3, 5, 7, 9} {
		sys := scenario.Build(scenario.Config{
			Seed: *seed, ClientLoad: load, Managed: true, Observe: true})
		sys.Run(*warmup, *measure)
		rep := sys.Report(fmt.Sprintf("load %.0f", load))
		if *exportTo != "" {
			dir := filepath.Join(*exportTo, fmt.Sprintf("slo-load%.0f", load))
			must(export.DumpReport(dir, rep))
		}
		for _, s := range rep.SLOs {
			fmt.Printf("%-8.0f %-12s %-12.3f %-10d %-10.2f %-10.2f %-12s %-12s %-12s\n",
				load, fmt.Sprintf("%.3f%%", 100*s.Compliance), s.ViolationMinutes,
				s.Episodes, s.FastBurn, s.SlowBurn,
				stageP95(rep.Loop.Detect), stageP95(rep.Loop.Locate), stageP95(rep.Loop.Adapt))
		}
	}
	fmt.Println("(compliance = fraction of the run with no open violation episode;")
	fmt.Println(" burn > 1 means the error budget drains faster than the 95% target allows)")
}

// stageP95 renders a stage's p95 latency, dash when never observed.
func stageP95(s telemetry.StageStats) string {
	if s.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fms", s.P95)
}

// durMS renders a histogram value that holds nanoseconds as a duration.
func durMS(v float64) string {
	if v <= 0 {
		return "-"
	}
	return time.Duration(v).Round(time.Millisecond).String()
}

// wireExp sizes the management-plane wire frame (see docs/WIRE.md) per
// message type on the paper's management traffic, next to the JSON debug
// rendering of the same message for scale.
func wireExp() {
	fmt.Println("=== Wire: binary frame bytes per management message type ===")
	fmt.Println("routed, trace-free frames exactly as every transport sends")
	fmt.Println("them; the JSON column is the encode-only debug rendering of")
	fmt.Println("the same message, which never travels.")
	fmt.Println()
	id := msg.Identity{Host: "client-host", PID: 4321, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer"}
	cases := []struct {
		name string
		m    msg.Message
	}{
		{"register", msg.Message{From: "/client-host/app/mpeg_play/4321", Body: msg.Register{
			ID: id, Sensors: []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}}}},
		{"violation", msg.Message{From: "/client-host/app/mpeg_play/4321", Body: msg.Violation{
			ID: id, Policy: "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 14.5, "jitter_rate": 0.42, "buffer_size": 12}}}},
		{"query", msg.Message{From: "/mgmt/QoSDomainManager", Body: msg.Query{
			From: "/mgmt/QoSDomainManager", Keys: []string{"cpu_load", "mem_usage"}, Ref: "q17"}}},
		{"report", msg.Message{From: "/server-host/QoSHostManager", Body: msg.Report{
			Host: "server-host", Values: map[string]float64{"cpu_load": 3.7, "mem_usage": 0.61}, Ref: "q17"}}},
		{"alarm", msg.Message{From: "/client-host/QoSHostManager", Body: msg.Alarm{
			ID: id, Policy: "NotifyQoSViolation", Suspect: "remote",
			Readings: map[string]float64{"frame_rate": 14.5}}}},
		{"directive", msg.Message{From: "/mgmt/QoSDomainManager", Body: msg.Directive{
			From: "/mgmt/QoSDomainManager", Action: "boost_cpu", Target: "mpeg_serv", Amount: 5}}},
		{"ack", msg.Message{From: "/server-host/QoSHostManager", Body: msg.Ack{Ref: "boost_cpu", OK: true}}},
		{"heartbeat", msg.Message{From: "/client-host/app/mpeg_play/4321", Body: msg.Heartbeat{ID: id, Seq: 93}}},
	}
	const to = "/client-host/QoSHostManager"
	fmt.Printf("%-12s %12s %14s %8s\n", "type", "json bytes", "frame bytes", "ratio")
	var jTotal, bTotal int
	for _, tc := range cases {
		jdata, err := msg.MarshalWire(msg.WireJSON, to, tc.m)
		must(err)
		bdata, err := msg.MarshalWire(msg.WireBinary, to, tc.m)
		must(err)
		jn, bn := len(jdata), len(bdata)
		jTotal += jn
		bTotal += bn
		fmt.Printf("%-12s %12d %14d %7.2fx\n", tc.name, jn, bn, float64(jn)/float64(bn))
	}
	fmt.Printf("%-12s %12d %14d %7.2fx\n", "total", jTotal, bTotal, float64(jTotal)/float64(bTotal))
}

// fleetExp sweeps the three-tier fleet simulator across fleet sizes:
// the hierarchy's promise is that per-host cost and the detect→adapt
// tail stay flat as the fleet grows two orders of magnitude, because
// diagnosis stays inside each domain and only aggregates travel up.
func fleetExp() {
	fmt.Println("=== Fleet: hierarchical control plane at scale ===")
	fmt.Println("three tiers (host -> domain -> region), 2 min of virtual time per")
	fmt.Println("fleet; batched uplinks (2s window). Flat p99 and flat KB/host")
	fmt.Println("across sizes is the hierarchy working.")
	fmt.Println()
	fmt.Printf("%-8s %-8s %-9s %-8s %-8s %-8s %-7s %-10s %-9s %-9s\n",
		"hosts", "domains", "telem", "alarms", "batches", "probes", "rebal", "p99", "KB/host", "wall")
	for _, federate := range []bool{false, true} {
		for _, hosts := range []int{100, 1000, 10000} {
			runtime.GC()
			var before runtimeMemStats
			runtime.ReadMemStats(&before.m)
			start := time.Now()
			sys := scenario.BuildFleet(scenario.FleetConfig{
				Seed: *seed, Hosts: hosts, ProcsPerHost: 10, Federate: federate})
			res := sys.Run(2 * time.Minute)
			wall := time.Since(start)
			runtime.GC()
			var after runtimeMemStats
			runtime.ReadMemStats(&after.m)
			kbPerHost := float64(after.m.HeapAlloc-before.m.HeapAlloc) / float64(hosts) / 1024
			telem := "flat"
			if federate {
				telem = fmt.Sprintf("fed:%d", res.Summaries)
			}
			fmt.Printf("%-8d %-8d %-9s %-8d %-8d %-8d %-7d %-10v %-9.2f %-9v\n",
				hosts, len(sys.Domains), telem, res.AlarmsRaised, res.Batches, res.Probes,
				res.Rebalances, res.DetectAdaptP99, kbPerHost, wall.Round(time.Millisecond))
		}
	}
	fmt.Println()
	fmt.Println("fed:N rows add the federated telemetry plane (N summaries reached")
	fmt.Println("the region); the KB/host delta is the price of per-host sketches.")
}

// runtimeMemStats wraps runtime.MemStats so fleetExp can take two
// snapshots without exporting the huge struct in its own signature.
type runtimeMemStats struct{ m runtime.MemStats }

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosbench:", err)
		os.Exit(1)
	}
}
