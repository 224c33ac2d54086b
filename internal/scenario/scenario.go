// Package scenario assembles complete managed systems — simulator, hosts,
// network, repository, policy agent, coordinators, host and domain
// managers, the video application and background load — and runs the
// paper's experiments on them. Everything in a scenario runs on the
// virtual clock, so runs are deterministic for a given seed.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"softqos/internal/agent"
	"softqos/internal/faults"
	"softqos/internal/instrument"
	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/netsim"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/runtime"
	"softqos/internal/sched"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
	"softqos/internal/telemetry/export"
	"softqos/internal/video"
)

// Example1Policy is the paper's Example 1 QoS policy, applied to the
// video client in every canned scenario.
const Example1Policy = `
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

// Addresses of the management components.
const (
	AgentAddr    = "/mgmt/PolicyAgent"
	ClientHMAddr = "/client-host/QoSHostManager"
	ServerHMAddr = "/server-host/QoSHostManager"
	DomainAddr   = "/mgmt/QoSDomainManager"
)

// Fixed parameters of every scenario.
const (
	// userRole is the role under which the video processes register.
	userRole = "viewer"
	// heartbeatEvery paces coordinator heartbeats in fault mode.
	heartbeatEvery = time.Second
	// livenessTimeout is how long a manager tolerates silence from a
	// managed process or a queried peer in fault mode.
	livenessTimeout = 3500 * time.Millisecond
	// sampleEvery paces flight-recorder sampling under Observe.
	sampleEvery = time.Second
)

// Config parameterizes a scenario.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Stream configures the video application.
	Stream video.StreamConfig
	// ClientLoad is the offered background CPU load on the client host
	// (the x-axis of Figure 3).
	ClientLoad float64
	// ServerLoad is the offered background CPU load on the server host
	// (server-fault experiments).
	ServerLoad float64
	// Managed enables the QoS management framework. With Managed false
	// the application runs under normal scheduling, unobserved — the
	// paper's baseline.
	Managed bool
	// RTLoad, when positive, runs a real-time-class process consuming
	// this fraction of the client CPU — load the CPU manager cannot
	// preempt with time-sharing priorities (overload experiments).
	RTLoad float64
	// HostRules overrides the client host manager's rule set (e.g.
	// manager.OverloadHostRules).
	HostRules string
	// PredictionHorizon, when positive, makes policy conditions
	// predictive: sensors evaluate values extrapolated this far along
	// their trend, so adaptation starts before the expectation is
	// actually violated (proactive QoS, §10 of the paper).
	PredictionHorizon time.Duration
	// BackupRoute adds a second network path and arms the domain
	// manager's network-fault hook to reroute onto it.
	BackupRoute bool
	// Faults, when non-nil, wraps the management bus in a fault-
	// injecting transport driven by this plan, and arms the resilience
	// machinery the faults exercise: manager liveness tracking with
	// eviction, coordinator heartbeats and re-registration. Fault
	// injection and all of its wiring are fully absent when nil, so
	// fault-free runs (and their determinism goldens) are unchanged.
	Faults *faults.Plan
	// Observe arms the compliance subsystem: a flight recorder samples
	// the registry on the virtual clock and a loop miner feeds the
	// loop.* stage histograms. Off by default — the miner registers new
	// metric names and sampling schedules extra events, either of which
	// would perturb the pre-existing determinism goldens.
	Observe bool
	// EventLog arms the structured event log: manager decisions (host
	// eviction, episode retry/timeout, re-adoption), agent cache
	// anomalies, rollout decisions and fault injections are recorded in
	// a bounded in-memory ring (eventlog.DefaultCapacity records) on the
	// virtual clock, trace-correlated with the violation traces. Off by
	// default — disabled, every record site is a nil-receiver no-op and
	// runs (and their determinism goldens) are byte-identical to a build
	// without the log.
	EventLog bool
	// PolicyChurn, when non-nil, arms live policy distribution: a
	// repository hub notifies the domain manager of policy deltas, the
	// domain manager relays them to the policy agent, the agent folds
	// them into its generation cache and re-delivers to registered
	// coordinators, and a rollout controller pushes new policy
	// generations mid-run through SLO-gated canary bakes. Fully absent
	// when nil, so churn-free runs (and their determinism goldens) are
	// unchanged.
	PolicyChurn *ChurnConfig
}

// ChurnConfig schedules mid-run policy pushes through the canary
// rollout controller.
type ChurnConfig struct {
	// Generations is how many pushes are scheduled (default 4).
	Generations int
	// Start is the virtual time of the first push (default 30s).
	Start time.Duration
	// Interval separates consecutive pushes (default 45s; keep it above
	// Bake — a push while the previous one is still baking is rejected
	// and counted in ChurnErrors).
	Interval time.Duration
	// Bake is the canary bake period (default 20s).
	Bake time.Duration
	// BadEvery makes every BadEvery-th push an unattainable policy (the
	// canary cohort violates it immediately, so the bake decision must
	// roll it back). 0 = never. The cohort is one host of the two, always
	// the client host.
	BadEvery int
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Generations <= 0 {
		c.Generations = 4
	}
	if c.Start <= 0 {
		c.Start = 30 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = 45 * time.Second
	}
	if c.Bake <= 0 {
		c.Bake = 20 * time.Second
	}
	return c
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// System is a fully wired scenario.
type System struct {
	Cfg Config
	Sim *sim.Simulator
	Bus *msg.Bus
	Net *netsim.Network

	ClientHost *sched.Host
	ServerHost *sched.Host

	Svc   *repository.Service
	Admin *mgmt.Admin
	Agent *agent.PolicyAgent

	ClientHM *manager.HostManager
	ServerHM *manager.HostManager
	DM       *manager.DomainManager

	Server *video.Server
	Client *video.Client
	Coord  *instrument.Coordinator

	FPS    *instrument.RateSensor
	Jitter *instrument.JitterSensor
	Buffer *instrument.ValueSensor

	CoreSwitch   *netsim.Switch
	BackupSwitch *netsim.Switch

	// Metrics and Tracer observe the whole control loop on the virtual
	// clock; snapshots are byte-identical across same-seed runs.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	// Flight and Miner exist only under Cfg.Observe: the flight
	// recorder's retained history and the loop-stage miner.
	Flight *telemetry.Timeline
	Miner  *telemetry.LoopMiner

	// Faults is the fault-injecting transport when Cfg.Faults is set.
	Faults *faults.Transport

	// Log is the structured event log, present only under Cfg.EventLog.
	Log *eventlog.Logger

	// Hub and Rollout exist only under Cfg.PolicyChurn: the repository's
	// watch/notify hub and the canary rollout controller.
	Hub     *repository.Hub
	Rollout *repository.Controller
	// ChurnErrors counts scheduled pushes the controller rejected (e.g.
	// the previous rollout was still baking).
	ChurnErrors int

	// Rerouted counts network-fault reroutes performed.
	Rerouted int
	// Restarted counts server-process restarts performed.
	Restarted int
}

// Build assembles a system; nothing has executed yet (call Run* next).
func Build(cfg Config) *System {
	cfg = cfg.withDefaults()
	d := newDomain(cfg.Seed)
	s := d.s
	sys := &System{Cfg: cfg, Sim: s, Bus: d.bus, Svc: d.svc, Admin: d.admin}

	// Telemetry runs on the virtual clock; no wall clock is installed, so
	// wall-cost histograms stay silent and snapshots deterministic.
	sys.Metrics = telemetry.NewRegistry(func() time.Duration { return s.Now().Duration() })
	sys.Tracer = telemetry.NewTracer(sys.Metrics.Clock())
	// The structured event log, fully absent unless requested: disabled,
	// every record site is a nil-receiver no-op, so log-free runs (and
	// their determinism goldens) are unchanged.
	if cfg.EventLog {
		sys.Log = eventlog.New(sys.Metrics.Clock(), 0)
		sys.Log.SetMetrics(sys.Metrics)
	}
	kit := obs.Kit{Metrics: sys.Metrics, Tracer: sys.Tracer, Log: sys.Log}

	sys.Net = netsim.New(s, kit)
	sys.Bus.SetMetrics(sys.Metrics)

	// Hosts: the prototype's workstations.
	sys.ClientHost = sched.NewHost(s, "client-host", kit, sched.WithMemory(1<<14))
	sys.ServerHost = sched.NewHost(s, "server-host", kit, sched.WithMemory(1<<14))

	// Network topology: server -> core switch -> client (the session
	// adds the client's node and route), plus a noise source that shares
	// the core switch, and optionally a backup path.
	sys.Net.AddNode("server-host", nil)
	sys.Net.AddNode("noise-src", nil)
	// Core switch: 2 MB/s, 256 KiB of buffering. An 8 KiB frame takes
	// ~4 ms of service; 30 fps of video is ~240 KB/s (12% utilisation).
	sys.CoreSwitch = sys.Net.AddSwitch("sw-core", 2<<20, 256<<10)
	if cfg.BackupRoute {
		sys.BackupSwitch = sys.Net.AddSwitch("sw-backup", 2<<20, 256<<10)
	}

	// Information model, policy, agent.
	mustNil(mgmt.DefineVideoModel(sys.Svc))
	mustNil(sys.Admin.AddPolicy(Example1Policy, videoPlayer))

	send := msg.SendFunc(sys.Bus.Send)
	if cfg.Faults != nil {
		sys.Faults = faults.New(sys.Bus, cfg.Faults, sys.Metrics.Clock(),
			func(delay time.Duration, fn func()) { s.After(delay, fn) }, kit)
		send = sys.Faults.Send
	}
	// The agent's counters exist only under PolicyChurn, which keeps
	// them out of the churn-free goldens' metric name set.
	agentKit := obs.Kit{Log: sys.Log}
	if cfg.PolicyChurn != nil {
		agentKit.Metrics = sys.Metrics
	}
	sys.Agent = d.startAgent(send, agentKit)

	// Managers. Liveness tracking is armed only under fault injection, so
	// fault-free simulations schedule exactly the same events, and only
	// where agents actually heartbeat: the client host manager (fed by the
	// client coordinator) and the domain manager's episode timeouts. The
	// server host manager has no heartbeating agent in this scenario, so
	// its tracking would only produce false evictions.
	var live manager.Liveness
	if cfg.Faults != nil {
		live = manager.Liveness{Clock: sys.Metrics.Clock(), Timeout: livenessTimeout}
	}
	dmCfg := manager.DomainConfig{Liveness: live, Kit: kit}
	if cfg.PolicyChurn != nil {
		dmCfg.PolicyAgents = []string{AgentAddr} // see the hub wiring below
	}
	sys.ClientHM = d.startHostManager(ClientHMAddr, sys.ClientHost, send, DomainAddr, live, kit)
	if cfg.HostRules != "" {
		mustNil(sys.ClientHM.LoadRules(cfg.HostRules))
	}
	sys.ServerHM = d.startHostManager(ServerHMAddr, sys.ServerHost, send, "", manager.Liveness{}, kit)
	sys.DM = manager.NewDomainManager(DomainAddr, send, dmCfg)
	sys.DM.RegisterAppServer("VideoApplication", ServerHMAddr, "mpeg_serve")
	sys.Bus.Bind(DomainAddr, "mgmt", sys.DM.HandleMessage)
	if cfg.BackupRoute {
		sys.DM.OnNetworkFault = func(msg.Alarm) {
			sys.Net.SetRoute("server-host", "client-host", 5*time.Millisecond, sys.BackupSwitch)
			sys.Rerouted++
		}
	}

	// The managed application and its instrumentation. Registration
	// happens shortly after process start, as in the prototype's
	// instrumented initialisation.
	sp := sessionSpec{net: sys.Net, sw: sys.CoreSwitch, send: send, server: sys.ServerHost,
		client: sys.ClientHost, node: "client-host", stream: cfg.Stream, role: userRole,
		hm: sys.ClientHM, serverHM: sys.ServerHM}
	if cfg.Managed && cfg.Faults == nil {
		sp.register = time.Millisecond
	}
	se := d.startSession(sp)
	sys.Server, sys.Client, sys.Coord = se.server, se.client, se.coord
	sys.FPS, sys.Jitter, sys.Buffer = se.fps, se.jitter, se.buffer
	sys.Net.SetRoute("noise-src", "client-host", 5*time.Millisecond, sys.CoreSwitch)

	// Process-failure adaptation: the server host manager can re-spawn a
	// dead video server on direction from the domain manager.
	sys.ServerHM.OnRestart = func(exe string) (runtime.ProcHandle, msg.Identity, bool) {
		if exe != "mpeg_serve" {
			return nil, msg.Identity{}, false
		}
		sys.Server = video.StartServer(sys.ServerHost, sys.Net, "server-host", "client-host", cfg.Stream)
		sys.Restarted++
		return sys.Server.Proc, msg.Identity{Host: "server-host", PID: sys.Server.Proc.PID(),
			Executable: "mpeg_serve", Application: "VideoApplication", UserRole: userRole}, true
	}

	sys.Coord.SetTelemetry(sys.Metrics, sys.Tracer)
	if cfg.PredictionHorizon > 0 {
		sys.Coord.SetPredictionHorizon(cfg.PredictionHorizon)
	}
	// The stream-degradation actuator (overload adaptation): managers may
	// direct the application to skip frames when resources cannot be
	// found. Degradation comes with renegotiation, per the paper's
	// strategy ("renegotiate a new resource usage allocation ... and/or
	// adapt its behaviour"): the session's frame-rate expectations are
	// scaled to the degraded rate and the jitter sensor re-based to the
	// new cadence, so the degraded stream is judged against what it can
	// deliver.
	sys.Coord.AddActuator(&instrument.FuncActuator{Name: "frame_skip", Fn: func(args ...string) error {
		if len(args) != 1 {
			return fmt.Errorf("frame_skip takes one numeric argument")
		}
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return err
		}
		n := int(f)
		if n < 1 {
			n = 1
		}
		prev := sys.Client.Skip()
		if n == prev {
			return nil
		}
		sys.Client.SetSkip(n)
		scale := float64(prev) / float64(n)
		specs := sys.Coord.InstalledSpecs()
		for i := range specs {
			for j := range specs[i].Conditions {
				if specs[i].Conditions[j].Attribute == "frame_rate" {
					specs[i].Conditions[j].Value *= scale
				}
			}
		}
		sys.Jitter.SetNominal(sys.Client.Config().Interval() * time.Duration(n))
		return sys.Coord.InstallPolicies(specs)
	}})
	if cfg.Managed && cfg.Faults != nil {
		// Under fault injection the registration may fail or be dropped —
		// the re-registration loop below recovers it, so the error is
		// tolerated rather than fatal.
		s.After(time.Millisecond, func() { _ = sys.Coord.Register() })
	}

	// Resilience wiring, armed only under fault injection so fault-free
	// simulations schedule exactly the same events as before.
	if cfg.Faults != nil {
		// Self-healing re-adoption: a manager that evicted (or lost) a
		// process re-tracks it from the next heartbeat or violation.
		sys.ClientHM.OnUnknownProc = func(id msg.Identity) (runtime.ProcHandle, bool) {
			return sys.Client.Proc, id.PID == sys.Client.Proc.PID()
		}
		sys.ServerHM.OnUnknownProc = func(id msg.Identity) (runtime.ProcHandle, bool) {
			return sys.Server.Proc, id.PID == sys.Server.Proc.PID()
		}
		s.Every(live.Timeout/2, func() {
			sys.ClientHM.CheckLiveness()
			sys.DM.CheckLiveness()
		})
		if cfg.Managed {
			s.Every(heartbeatEvery, func() { _ = sys.Coord.Heartbeat() })
			// Re-register until a PolicySet lands (registration or its
			// reply may have been lost to a fault).
			s.Every(2*heartbeatEvery, func() {
				if !sys.Coord.Registered() {
					_ = sys.Coord.Register()
				}
			})
		}
	}

	// Live policy distribution, armed only under PolicyChurn so churn-
	// free runs schedule the same events and register the same metric
	// names as before the hub existed.
	if cfg.PolicyChurn != nil {
		churn := cfg.PolicyChurn.withDefaults()
		sys.Hub = repository.NewHub("/repo/hub", send, kit)
		// Deltas travel the management hierarchy: hub -> domain manager
		// -> policy agent -> registered coordinators.
		sys.Hub.Subscribe(DomainAddr)
		ctl := repository.NewController(sys.Hub, sys.Svc, repository.RolloutConfig{Bake: churn.Bake, Kit: kit})
		ctl.SetClock(func() time.Duration { return s.Now().Duration() },
			func(delay time.Duration, fn func()) { s.After(delay, fn) })
		ctl.SetComplianceSource(func() []telemetry.PolicyCompliance {
			return telemetry.ComputeCompliance(sys.Tracer.Traces(), s.Now().Duration(), sys.SLOTargets())
		})
		ctl.SetHosts(func() []string { return []string{"client-host", "server-host"} })
		// A cohort host evicted from the domain roster mid-bake makes the
		// canary unjudgeable: roll back instead of promoting on silence.
		sys.DM.OnHostEvicted = ctl.HostEvicted
		sys.Rollout = ctl
		for i := 0; i < churn.Generations; i++ {
			s.After(churn.Start+time.Duration(i)*churn.Interval, func() {
				src := churnPolicySrc(i, churn)
				if _, err := ctl.Push(src, videoPlayer); err != nil {
					sys.ChurnErrors++
				}
			})
		}
	}

	// Background load.
	if cfg.ClientLoad > 0 {
		loadgen.Offered(sys.ClientHost, cfg.ClientLoad)
	}
	if cfg.RTLoad > 0 {
		frac := cfg.RTLoad
		if frac >= 1 {
			frac = 0.95
		}
		period := 10 * time.Millisecond
		busy := time.Duration(float64(period) * frac)
		sys.ClientHost.Spawn("rt-codec", func(p *sched.Proc) {
			var loop func()
			loop = func() { p.Use(busy, func() { p.Sleep(period-busy, loop) }) }
			loop()
		}, sched.AsClass(sched.RT, 20))
	}
	if cfg.ServerLoad > 0 {
		loadgen.Offered(sys.ServerHost, cfg.ServerLoad)
	}

	// Compliance observability, fully absent unless requested so that
	// fault-free goldens see the same metric names and event schedule.
	if cfg.Observe {
		sys.Flight = telemetry.NewTimeline(sys.Metrics)
		sys.Miner = telemetry.NewLoopMiner(sys.Metrics)
		s.Every(sampleEvery, func() {
			sys.Miner.Mine(sys.Tracer.Traces())
			sys.Flight.Sample()
		})
	}
	return sys
}

// churnPolicySrc renders the policy text for churn push number i: the
// Example 1 text under another name and condition. Good generations
// tune the jitter bound slightly (distinct text per generation, so
// idempotency never kicks in); bad generations demand an unattainable
// frame rate under the distinct name ChurnBreaker, keeping their
// violation history out of the good generations' SLO windows.
func churnPolicySrc(i int, churn ChurnConfig) string {
	name, cond := "ChurnGoal", fmt.Sprintf("frame_rate = 25(+2)(-2) and jitter_rate < %.2f", 1.30+0.01*float64(i))
	if churn.BadEvery > 0 && (i+1)%churn.BadEvery == 0 {
		name, cond = "ChurnBreaker", "frame_rate = 100(+2)(-2)"
	}
	return strings.NewReplacer("NotifyQoSViolation", name,
		"frame_rate = 25(+2)(-2) and jitter_rate < 1.25", cond).Replace(Example1Policy)
}

// SLOTargets derives one SLO declaration per installed policy, with the
// policy's condition expression rendered as the objective string. Empty
// until the coordinator has registered and received its policies.
func (sys *System) SLOTargets() []telemetry.SLOTarget {
	specs := sys.Coord.InstalledSpecs()
	targets := make([]telemetry.SLOTarget, 0, len(specs))
	for _, sp := range specs {
		targets = append(targets, telemetry.SLOTarget{
			Policy: sp.Name, Objective: policyObjective(sp),
		})
	}
	return targets
}

func policyObjective(sp msg.PolicySpec) string {
	conn := sp.Connective
	if conn == "" {
		conn = "and"
	}
	parts := make([]string, 0, len(sp.Conditions))
	for _, c := range sp.Conditions {
		parts = append(parts, fmt.Sprintf("%s %s %g", c.Attribute, c.Op, c.Value))
	}
	return strings.Join(parts, " "+conn+" ")
}

// Report assembles the end-of-run compliance report for this system.
// Call it after Run; on a deterministic simulation the rendered report
// is byte-identical across same-seed runs.
func (sys *System) Report(title string) export.ComplianceReport {
	return export.BuildComplianceReport(title, sys.Metrics, sys.Tracer, sys.Flight, sys.SLOTargets())
}

func mustNil(err error) {
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
}

// CongestNetwork starts cross traffic that offers roughly frac of the
// core switch's service rate. The packets are small (comparable to video
// frames) so drop-tail losses fall proportionally on both flows. The
// fault lasts for the rest of the run.
func (sys *System) CongestNetwork(frac float64) {
	const interval = 500 * time.Microsecond
	bytes := int(2 * (1 << 20) * frac * interval.Seconds())
	sys.Net.StartCrossTraffic("noise-src", "client-host", bytes, interval)
}

// Sample is one timeline observation.
type Sample struct {
	At      sim.Time
	FPS     float64
	Jitter  float64
	Buffer  int
	Boost   int
	LoadAvg float64
}

// Result summarizes a run.
type Result struct {
	// MeanFPS is the mean playback throughput over the measurement
	// window (frames displayed / window), the paper's Figure 3 metric.
	MeanFPS float64
	// LoadAvg is the client host's damped load average at the end.
	LoadAvg float64
	// InBandFraction is the fraction of timeline samples with FPS inside
	// the policy band [23, 27] or above it (i.e. not starved).
	InBandFraction float64
	// Violations / Overshoots / Notifies are coordinator statistics.
	Violations uint64
	Overshoots uint64
	Notifies   uint64
	// Escalations / NetworkFaults / ServerFaults are manager statistics.
	Escalations   uint64
	NetworkFaults uint64
	ServerFaults  uint64
	// CPUAdjustments counts CPU manager actions on the client host.
	CPUAdjustments int
	// FinalBoost is the client process's boost at the end.
	FinalBoost int
	// Displayed and Dropped count frames over the whole run.
	Displayed int
	Dropped   uint64
	// Timeline holds one sample per second of the measurement window.
	Timeline []Sample
}

// Run executes the scenario for warmup+measure of virtual time and
// summarizes the measurement window.
func (sys *System) Run(warmup, measure time.Duration) Result {
	s := sys.Sim
	s.RunFor(warmup)
	startFrames := sys.Client.Displayed

	var timeline []Sample
	tk := s.Every(time.Second, func() {
		timeline = append(timeline, Sample{
			At:      s.Now(),
			FPS:     sys.FPS.Read(),
			Jitter:  sys.Jitter.Read(),
			Buffer:  sys.Client.Socket.Len(),
			Boost:   sys.Client.Proc.Boost(),
			LoadAvg: sys.ClientHost.LoadAvg(),
		})
	})
	s.RunFor(measure)
	tk.Stop()

	frames := sys.Client.Displayed - startFrames
	inBand := 0
	for _, smp := range timeline {
		if smp.FPS > 23 {
			inBand++
		}
	}
	res := Result{
		MeanFPS:        float64(frames) / measure.Seconds(),
		LoadAvg:        sys.ClientHost.LoadAvg(),
		Violations:     sys.Coord.Violations,
		Overshoots:     sys.Coord.Overshoots,
		Notifies:       sys.Coord.Notifies,
		Escalations:    sys.ClientHM.Escalations,
		NetworkFaults:  sys.DM.NetworkFaults,
		ServerFaults:   sys.DM.ServerFaults,
		CPUAdjustments: sys.ClientHM.CPU().Adjustments,
		FinalBoost:     sys.Client.Proc.Boost(),
		Displayed:      sys.Client.Displayed,
		Dropped:        sys.Client.Socket.Dropped(),
		Timeline:       timeline,
	}
	if len(timeline) > 0 {
		res.InBandFraction = float64(inBand) / float64(len(timeline))
	}
	return res
}

// RampResult summarizes the proactive-QoS experiment: background load
// ramps up one process at a time while the framework defends the policy
// band, reactively or predictively.
type RampResult struct {
	BelowBand   int // seconds with FPS <= 23
	MeanFPS     float64
	Adjustments int
}

// Ramp runs a managed scenario in which one CPU-bound process arrives
// every stepEvery until nine are running; the measurement window covers
// the whole ramp, so BelowBand counts the seconds each arrival knocked
// the stream out of its band before adaptation caught it.
func Ramp(cfg Config, stepEvery, measure time.Duration) RampResult {
	sys := Build(cfg)
	sys.Sim.RunFor(20 * time.Second)
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("ramp-%d", i)
		sys.Sim.After(time.Duration(i+1)*stepEvery, func() {
			loadgen.Spin(sys.ClientHost, name)
		})
	}
	res := sys.Run(0, measure)
	return rampResult(res, res.CPUAdjustments)
}

// rampResult counts the seconds of res's timeline at or below the
// policy band.
func rampResult(res Result, adjustments int) RampResult {
	out := RampResult{MeanFPS: res.MeanFPS, Adjustments: adjustments}
	for _, smp := range res.Timeline {
		if smp.FPS <= 23 {
			out.BelowBand++
		}
	}
	return out
}

// MemorySqueeze runs a managed scenario in which a background "thief"
// gradually steals the client's resident pages (a slow leak elsewhere in
// the system): paging slows the decoder smoothly until the memory
// manager restores the resident set. With a prediction horizon the
// declining trend triggers restoration before the frame rate actually
// leaves the band.
func MemorySqueeze(cfg Config, stealEvery time.Duration, stealPages int, measure time.Duration) RampResult {
	if cfg.HostRules == "" {
		cfg.HostRules = manager.MemoryAwareHostRules
	}
	sys := Build(cfg)
	// Give the client a working set so paging matters.
	sys.Client.Proc.SetWorkingSet(4000)
	sys.ClientHost.SetResident(sys.Client.Proc, 4000)
	sys.Sim.RunFor(20 * time.Second)
	sys.Sim.Every(stealEvery, func() {
		res := sys.Client.Proc.Resident() - stealPages
		if res < 0 {
			res = 0
		}
		sys.ClientHost.SetResident(sys.Client.Proc, res)
	})
	return rampResult(sys.Run(0, measure), sys.ClientHM.Memory().Adjustments)
}

// Fig3Row is one point of the Figure 3 reproduction.
type Fig3Row struct {
	OfferedLoad float64
	MeasuredLA  float64
	NormalFPS   float64
	ManagedFPS  float64
}

// Fig3Loads are the x-axis values of the paper's Figure 3.
var Fig3Loads = []float64{0.70, 3.00, 5.00, 7.00, 10.00}

// backgroundFor converts a target load-average x-axis value into a
// background spinner count: the client's own demand covers the first
// ≈0.7 of the load average.
func backgroundFor(load float64) float64 {
	bg := load - 0.7
	if bg < 0 {
		return 0
	}
	return float64(int(bg + 0.5))
}

// Figure3 reproduces the paper's Figure 3: mean video playback throughput
// versus client CPU load, under normal scheduling and with the QoS
// framework managing the client.
func Figure3(loads []float64, warmup, measure time.Duration, seed int64) []Fig3Row {
	if len(loads) == 0 {
		loads = Fig3Loads
	}
	rows := make([]Fig3Row, 0, len(loads))
	for _, load := range loads {
		// The video client itself contributes ≈0.7-0.9 to the load
		// average (a CPU-saturated decoder), so the paper's x = 0.70
		// point is the unloaded baseline; higher points add CPU-bound
		// background processes.
		bg := backgroundFor(load)
		normal := Build(Config{Seed: seed, ClientLoad: bg, Managed: false}).Run(warmup, measure)
		managed := Build(Config{Seed: seed, ClientLoad: bg, Managed: true}).Run(warmup, measure)
		rows = append(rows, Fig3Row{
			OfferedLoad: load,
			MeasuredLA:  managed.LoadAvg,
			NormalFPS:   normal.MeanFPS,
			ManagedFPS:  managed.MeanFPS,
		})
	}
	return rows
}
