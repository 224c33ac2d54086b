package scenario

import (
	"fmt"
	"slices"
	"time"

	"softqos/internal/agent"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// The fleet scenario scales the paper's control loop to a three-tier
// hierarchy: N lightweight host managers register with domain managers
// (one per ~100 hosts), which register with a single region manager.
// Detection and adaptation stay local — a host's load spike raises an
// alarm to its domain, which diagnoses it with the ordinary episode
// machinery and directs the host to adapt — while the domain's alarm
// traffic coalesces upward into per-window AlarmBatch summaries. The
// region keeps only per-domain aggregates (never per-host state) and
// probes a domain — only that domain — when its saturation summary
// crosses a threshold, shedding load from the hottest host it finds.

// RegionAddr is the region manager's management address in fleet runs.
const RegionAddr = "/mgmt/QoSRegionManager"

// Fixed cadences of every fleet run. The load thresholds a host alarms
// at and the tiers judge by are the manager package's LoadThreshold,
// SevereLoad and SaturationThreshold.
const (
	// fleetSampleEvery paces each host's load sampling and the flight
	// recorder.
	fleetSampleEvery = 5 * time.Second
	// fleetHeartbeatEvery paces host and domain heartbeats.
	fleetHeartbeatEvery = 15 * time.Second
	// fleetLivenessTimeout arms the domain and region liveness sweeps.
	fleetLivenessTimeout = 10 * time.Second
)

// FleetConfig parameterizes a fleet run.
type FleetConfig struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Hosts is the fleet size (default 100).
	Hosts int
	// ProcsPerHost is how many managed processes each host reports
	// statistics for (default 10).
	ProcsPerHost int
	// Domains is the number of domain managers (default ceil(Hosts/100)).
	Domains int
	// BatchWindow is the alarm-coalescing window on each domain's uplink
	// (default manager.DefaultBatchWindow).
	BatchWindow time.Duration
	// SpikeProb is the per-sample probability a calm host spikes
	// (default 0.02).
	SpikeProb float64
	// Trace attaches a tracer (small fleets only: traces are capped and
	// 10k hosts would just churn the ring).
	Trace bool
	// PolicyGens arms the policy-distribution plane: a repository hub
	// subscribed to the region announces this many fleet-scope policy
	// generations during the run, each relayed region → domains →
	// per-domain policy agents, whose generation caches must converge on
	// the hub's counter. 0 (the default) wires nothing, so existing runs
	// and goldens are untouched.
	PolicyGens int
	// PolicyEvery paces the generations (default 30s; the first fires
	// at 10s).
	PolicyEvery time.Duration
	// EventLog arms the structured event log on the fleet's control
	// plane. ONE bounded ring (eventlog.DefaultCapacity records) is
	// shared by every tier (its memory amortizes across the whole fleet
	// rather than multiplying by host count); tiers write through
	// per-tier views of it. Under Federate the views carry counter sinks,
	// so per-(component,level) error-class counts
	// ("log.<component>.<level>") ride the existing telemetry window
	// flushes host→domain→region instead of adding messages. Off by
	// default; disabled, every record site is a nil no-op.
	EventLog bool
	// Federate arms the federated telemetry plane: each host ships a
	// per-window msg.TelemetrySummary to its domain, each domain merges
	// and re-ships one per window to the region, and the region holds
	// the fleet-level aggregate (counters, maxima, mergeable sketch
	// histograms) with per-domain — never per-host — breakdowns. It also
	// attaches a flight recorder with 5m/1h downsampling tiers.
	Federate bool
	// TelemetryWindow paces the federated flush cadence (default 10s).
	TelemetryWindow time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hosts <= 0 {
		c.Hosts = 100
	}
	if c.ProcsPerHost <= 0 {
		c.ProcsPerHost = 10
	}
	if c.Domains <= 0 {
		c.Domains = (c.Hosts + 99) / 100
	}
	if c.Domains > c.Hosts {
		c.Domains = c.Hosts
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = manager.DefaultBatchWindow
	}
	if c.SpikeProb <= 0 {
		c.SpikeProb = 0.02
	}
	if c.TelemetryWindow <= 0 {
		c.TelemetryWindow = manager.DefaultTelemetryWindow
	}
	if c.PolicyEvery <= 0 {
		c.PolicyEvery = 30 * time.Second
	}
	return c
}

// fleetHost is a lightweight host manager stub: it speaks the full
// management protocol (register, heartbeat, alarm, query-report,
// directive) without simulating a scheduler underneath, so fleets of
// 10k hosts stay cheap. Load is a random walk that occasionally spikes;
// a spike raises exactly one alarm and persists until a corrective
// directive arrives.
type fleetHost struct {
	sys    *FleetSystem
	index  int
	name   string
	addr   string
	domain string // domain manager address
	app    string // the application this host's lead process serves
	id     msg.Identity

	baseline float64
	load     float64
	spiked   bool
	alarmed  bool          // alarm sent for the current spike
	detectAt time.Duration // when the current spike's alarm was raised

	// procCPU is the per-process share of the host's load; procs exist
	// only as reported statistics.
	procCPU []float64

	// Federated telemetry (nil unless Cfg.Federate): the host's summary
	// exporter plus pre-resolved sketch handles into its accumulator.
	tel        *manager.SummaryExporter
	loadSketch *telemetry.Sketch
	latSketch  *telemetry.Sketch

	// evlog is the host's view of the fleet-shared event log (nil
	// unless Cfg.EventLog); under Federate its sink counts records into
	// the host's window summary.
	evlog *eventlog.Logger

	adaptations int
	sheds       int
}

func (h *fleetHost) send(to string, m msg.Message) {
	_ = h.sys.Bus.Send(to, m)
}

func (h *fleetHost) register() {
	h.send(h.domain, msg.Message{From: h.addr, Body: msg.Register{ID: h.id}})
}

func (h *fleetHost) heartbeat(seq uint64) {
	h.send(h.domain, msg.Message{From: h.addr, Body: msg.Heartbeat{ID: h.id, Seq: seq}})
}

// sample advances the host's load: calm hosts jitter around their
// baseline and occasionally spike; spiked hosts stay hot (re-alarming
// is suppressed) until a directive adapts them.
func (h *fleetHost) sample() {
	rng := h.sys.Sim.Rand()
	if h.spiked {
		h.load += rng.Float64() * 0.2 // spike keeps creeping
	} else {
		h.load = h.baseline + rng.Float64()*0.4 - 0.2
		if rng.Float64() < h.sys.Cfg.SpikeProb {
			h.spiked = true
			h.load = manager.LoadThreshold + 0.5 + rng.Float64()*(manager.SevereLoad-manager.LoadThreshold)
		}
	}
	for i := range h.procCPU {
		h.procCPU[i] = h.load / float64(len(h.procCPU))
	}
	if h.tel != nil {
		h.loadSketch.Observe(h.load)
		h.tel.Summary().SetMax("fleet.cpu_load_max", h.load)
		h.tel.Summary().AddCounter("fleet.samples", 1)
	}
	if h.spiked && !h.alarmed {
		h.alarmed = true
		h.detectAt = h.sys.Sim.Now().Duration()
		h.sys.alarmsRaised++
		if h.tel != nil {
			h.tel.Summary().AddCounter("fleet.alarms_raised", 1)
		}
		var tc telemetry.TraceContext
		if h.sys.Tracer != nil {
			tc = h.sys.Tracer.Begin(h.id.Address(), "FleetLoadPolicy", "hostmanager",
				fmt.Sprintf("cpu_load %.2f over threshold", h.load))
		}
		h.evlog.EventCtx(tc, eventlog.Warn, "hostmanager", "load_spike",
			eventlog.Str("host", h.name), eventlog.Num("cpu_load", h.load))
		h.send(h.domain, msg.Message{From: h.addr, Trace: tc, Body: msg.Alarm{
			ID: h.id, Policy: "FleetLoadPolicy",
			Readings: map[string]float64{"cpu_load": h.load},
		}})
	}
}

// handle processes one management message addressed to this host.
func (h *fleetHost) handle(m msg.Message) {
	switch body := m.Body.(type) {
	case msg.Query:
		h.answer(body, m.Trace)
	case msg.Directive:
		h.directive(body)
	}
}

// answer replies to a statistics query — an episode interrogation or a
// fan-out sub-query — with exactly the requested keys.
func (h *fleetHost) answer(q msg.Query, tc telemetry.TraceContext) {
	values := make(map[string]float64, len(q.Keys))
	for _, k := range q.Keys {
		switch k {
		case "cpu_load", "run_queue":
			values[k] = h.load
		case "mem_usage":
			values[k] = 0.4 + 0.1*h.load/manager.LoadThreshold
		default:
			const p = "proc_cpu:"
			if len(k) > len(p) && k[:len(p)] == p {
				if i := slices.Index(h.sys.exes, k[len(p):]); i >= 0 {
					values[k] = h.procCPU[i]
				}
			}
		}
	}
	h.send(q.From, msg.Message{From: h.addr, Trace: tc,
		Body: msg.Report{Host: h.name, Values: values, Ref: q.Ref}})
}

// directive adapts the host: a boost (the domain's episode outcome) or
// a shed (the region's rebalance) ends the current spike, closing the
// detect→adapt loop the fleet histogram measures.
func (h *fleetHost) directive(d msg.Directive) {
	switch d.Action {
	case "boost_cpu":
		h.adaptations++
		if h.tel != nil {
			h.tel.Summary().AddCounter("fleet.adaptations", 1)
		}
	case "shed_load":
		h.sheds++
		if h.tel != nil {
			h.tel.Summary().AddCounter("fleet.sheds", 1)
		}
	default:
		return
	}
	if h.spiked {
		h.spiked = false
		h.alarmed = false
		h.load = h.baseline
		if h.detectAt > 0 {
			lat := h.sys.Sim.Now().Duration() - h.detectAt
			h.sys.DetectAdapt.ObserveDuration(lat)
			if h.tel != nil {
				h.latSketch.ObserveDuration(lat)
			}
			h.detectAt = 0
		}
		if h.sys.Tracer != nil {
			h.sys.Tracer.Resolve(h.id.Address(), "FleetLoadPolicy")
		}
	}
}

// fleetDomain is one middle-tier slot: the ordinary DomainManager plus
// its uplink coalescer and saturation bookkeeping.
type fleetDomain struct {
	name    string
	addr    string
	dm      *manager.DomainManager
	uplink  *manager.AlarmCoalescer
	agg     *manager.SummaryAggregator // federated runs only
	evlog   *eventlog.Logger           // domain-tier view of the shared log
	hosts   int
	flushed uint64 // dm.Alarms already summarized in earlier flushes
}

// agentAddr is the address of the domain's policy agent (policy
// distribution runs only).
func (fd *fleetDomain) agentAddr() string { return "/" + fd.name + "/PolicyAgent" }

// FleetSystem is a fully wired three-tier fleet.
type FleetSystem struct {
	Cfg FleetConfig
	Sim *sim.Simulator
	Bus *msg.Bus

	Region  *manager.RegionManager
	Domains []*fleetDomain
	hosts   []*fleetHost
	exes    []string // every host's process names: svc0, svc1, ...

	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	// DetectAdapt is the end-to-end detect→adapt latency metric
	// (fleet.detect_adapt_ns). Being a mergeable sketch, the local
	// aggregate and a region's federated one agree exactly.
	DetectAdapt *telemetry.Sketch

	// Federated telemetry plane (nil unless Cfg.Federate).
	RegionAgg *manager.SummaryAggregator
	Flight    *telemetry.Timeline

	// Log is the fleet-shared structured event log (nil unless
	// Cfg.EventLog).
	Log *eventlog.Logger

	// Policy-distribution plane (nil/empty unless Cfg.PolicyGens > 0).
	Hub          *repository.Hub
	policyAgents []*agent.PolicyAgent

	alarmsRaised uint64
}

// FleetResult summarizes one fleet run.
type FleetResult struct {
	Cfg FleetConfig

	AlarmsRaised  uint64 // host spikes that raised an alarm
	Adaptations   uint64 // boost_cpu directives applied by hosts
	Sheds         uint64 // shed_load directives applied by hosts
	Batches       uint64 // alarm batches the region ingested
	BatchedAlarms uint64 // alarms carried by those batches
	Probes        uint64 // region -> domain localization probes
	FanoutQueries uint64 // domain -> host sub-queries those probes fanned into
	Rebalances    uint64 // region shed_load directives issued

	// DetectAdaptP50/P99 are the detect→adapt latency quantiles.
	DetectAdaptP50 time.Duration
	DetectAdaptP99 time.Duration
	Adapted        uint64 // histogram observation count

	// Summaries counts telemetry summaries the region aggregator
	// ingested (federated runs; zero otherwise).
	Summaries uint64

	// Policy-distribution plane (zero unless PolicyGens > 0): hub
	// notifications sent, region+domain relays of them down the
	// hierarchy, the hub's final generation, and how many per-domain
	// policy agents ended the run converged on that generation.
	PolicyDeltas     uint64
	PolicyRelays     uint64
	PolicyGeneration uint64
	PolicyConverged  int

	BusMessages uint64
	BusBytes    uint64
	Events      uint64        // simulation events fired
	SimTime     time.Duration // virtual time simulated
}

// BuildFleet assembles a fleet system; nothing has executed yet.
func BuildFleet(cfg FleetConfig) *FleetSystem {
	cfg = cfg.withDefaults()
	sys := &FleetSystem{Cfg: cfg}
	for i := 0; i < cfg.ProcsPerHost; i++ {
		sys.exes = append(sys.exes, fmt.Sprintf("svc%d", i))
	}
	s := sim.New(cfg.Seed)
	sys.Sim = s

	sys.Metrics = telemetry.NewRegistry(func() time.Duration { return s.Now().Duration() })
	if cfg.Trace {
		sys.Tracer = telemetry.NewTracer(sys.Metrics.Clock())
	}
	sys.Bus = msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	sys.Bus.SetMetrics(sys.Metrics)
	sys.DetectAdapt = sys.Metrics.Sketch("fleet.detect_adapt_ns")

	send := msg.SendFunc(sys.Bus.Send)

	if cfg.EventLog {
		sys.Log = eventlog.New(sys.Metrics.Clock(), 0)
		sys.Log.SetMetrics(sys.Metrics)
	}

	// Tier 3: the region manager.
	regionCfg := manager.RegionConfig{
		Liveness: manager.Liveness{Clock: sys.Metrics.Clock(), Timeout: 2 * fleetHeartbeatEvery},
		Kit:      obs.Kit{Metrics: sys.Metrics, Tracer: sys.Tracer}}
	if cfg.Federate {
		// The region's terminal aggregator holds the fleet view with
		// per-domain breakdowns; it never re-ships.
		sys.RegionAgg = manager.NewSummaryAggregator("region", RegionAddr, "", send,
			cfg.TelemetryWindow, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{Metrics: sys.Metrics})
		regionCfg.SummarySink = sys.RegionAgg.Ingest
		// Flight recorder with downsampling tiers: the raw ring plus
		// 5m/1h roll-ups, all sampled from the same registry.
		sys.Flight = telemetry.NewTimeline(sys.Metrics)
		sys.Flight.EnableRollup()
	}
	sys.Region = manager.NewRegionManager(RegionAddr, send, regionCfg)
	sys.Bus.Bind(RegionAddr, "mgmt", func(m msg.Message) { sys.Region.HandleMessage(m) })

	// Tier 2: domain managers with coalescing uplinks.
	for j := 0; j < cfg.Domains; j++ {
		name := fmt.Sprintf("domain-%d", j)
		addr := fmt.Sprintf("/%s/QoSDomainManager", name)
		fd := &fleetDomain{name: name, addr: addr}
		if cfg.Federate {
			// The domain's forwarding aggregator merges its hosts' window
			// summaries and ships one domain-tier summary per window up —
			// the region's telemetry fan-in is the domain count.
			fd.agg = manager.NewSummaryAggregator("domain", addr, RegionAddr, send,
				cfg.TelemetryWindow, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{Metrics: sys.Metrics})
		}
		if sys.Log != nil {
			// The domain tier writes through a view of the shared ring; in
			// federated runs its sink folds per-(component,level) counts
			// into the domain's own aggregate, which the next window flush
			// carries to the region — log federation rides telemetry
			// federation.
			fd.evlog = sys.Log
			if cfg.Federate {
				fd.evlog = sys.Log.WithSink(func(level eventlog.Level, component, _ string) {
					fd.agg.AddLocal(eventlog.CounterName(level, component), 1)
				})
			}
		}
		kit := obs.Kit{Metrics: sys.Metrics, Tracer: sys.Tracer, Log: fd.evlog}
		co := manager.NewAlarmCoalescer("domain", addr, RegionAddr, send,
			cfg.BatchWindow, func(d time.Duration, fn func()) { s.After(d, fn) }, kit)
		co.Summarize = func() map[string]float64 {
			delta := fd.dm.Alarms - fd.flushed
			fd.flushed = fd.dm.Alarms
			hosts := fd.hosts
			if hosts == 0 {
				hosts = 1
			}
			return map[string]float64{
				"domain_saturation": float64(delta) / float64(hosts),
				"hosts":             float64(hosts),
			}
		}
		fd.uplink = co
		dcfg := manager.DomainConfig{
			Liveness: manager.Liveness{Clock: sys.Metrics.Clock(), Timeout: fleetLivenessTimeout},
			// Hosts beat slowly; their roster tolerates two missed beats.
			HostTimeout: 2*fleetHeartbeatEvery + time.Second,
			Uplink:      co,
			Kit:         kit,
		}
		if cfg.Federate {
			dcfg.SummarySink = fd.agg.Ingest
		}
		if cfg.PolicyGens > 0 {
			dcfg.PolicyAgents = []string{fd.agentAddr()}
		}
		fd.dm = manager.NewDomainManager(addr, send, dcfg)
		sys.Domains = append(sys.Domains, fd)
		sys.Bus.Bind(addr, name, func(m msg.Message) { fd.dm.HandleMessage(m) })
	}

	// Tier 1: the hosts, dealt round-robin across domains so every
	// domain holds ceil(Hosts/Domains) or floor of it.
	for i := 0; i < cfg.Hosts; i++ {
		fd := sys.Domains[i%cfg.Domains]
		name := fmt.Sprintf("fleet-%05d", i)
		h := &fleetHost{
			sys:      sys,
			index:    i,
			name:     name,
			addr:     fmt.Sprintf("/%s/QoSHostManager", name),
			domain:   fd.addr,
			app:      "app-" + name,
			baseline: 0.4 + 0.8*float64(i%7)/7,
			procCPU:  make([]float64, cfg.ProcsPerHost),
		}
		h.id = msg.Identity{Host: name, PID: i + 1, Executable: sys.exes[0],
			Application: h.app}
		h.load = h.baseline
		if cfg.Federate {
			h.tel = manager.NewSummaryExporter("host", h.addr, fd.addr,
				send, cfg.TelemetryWindow, func(d time.Duration, fn func()) { s.After(d, fn) })
			h.loadSketch = h.tel.Summary().Sketch("fleet.load")
			h.latSketch = h.tel.Summary().Sketch("fleet.detect_adapt_ns")
		}
		if sys.Log != nil {
			h.evlog = sys.Log
			if h.tel != nil {
				h.evlog = sys.Log.WithSink(eventlog.SummarySink(h.tel.Summary()))
			}
		}
		fd.hosts++
		// The host is the server of its own application, so the domain's
		// episode machinery (query, report, rule diagnosis, boost
		// directive) runs unchanged against fleet hosts.
		fd.dm.RegisterAppServer(h.app, h.addr, sys.exes[0])
		sys.hosts = append(sys.hosts, h)
		sys.Bus.Bind(h.addr, name, h.handle)
	}

	// Policy-distribution plane: a hub subscribed to the region pushes
	// fleet-scope generations; the region relays each delta to every
	// domain, each domain to its policy agent, and the agents' generation
	// caches must converge on the hub counter by run end.
	if cfg.PolicyGens > 0 {
		svc := repository.NewService(repository.LocalStore{Dir: repository.NewDirectory(repository.QoSSchema())})
		mustNil(mgmt.DefineVideoModel(svc))
		mustNil(mgmt.NewAdmin(svc).AddPolicy(Example1Policy, videoPlayer))
		specs, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
		mustNil(err)

		sys.Hub = repository.NewHub("/repo/hub", send, obs.Kit{Metrics: sys.Metrics, Log: sys.Log})
		sys.Hub.Subscribe(RegionAddr)
		for _, fd := range sys.Domains {
			pa := agent.New(fd.agentAddr(), svc, send, obs.Kit{Metrics: sys.Metrics, Log: fd.evlog})
			sys.Bus.Bind(pa.Addr(), fd.name+"-agent", pa.HandleMessage)
			sys.policyAgents = append(sys.policyAgents, pa)
		}
		for i := 0; i < cfg.PolicyGens; i++ {
			gen := i + 1
			s.After(10*time.Second+time.Duration(i)*cfg.PolicyEvery, func() {
				_, _ = sys.Hub.Announce("mpeg_play", "fleet", nil, specs,
					fmt.Sprintf("fleet push %d", gen), telemetry.TraceContext{})
			})
		}
	}
	return sys
}

// Start schedules the fleet's recurring activity: registration,
// heartbeats, load sampling, and per-tier liveness sweeps. Offsets are
// index-staggered so 10k hosts do not fire on the same instant.
func (sys *FleetSystem) Start() {
	s := sys.Sim
	for _, fd := range sys.Domains {
		s.After(time.Millisecond, func() {
			_ = sys.Bus.Send(RegionAddr, msg.Message{From: fd.addr,
				Body: msg.Register{ID: msg.Identity{Host: fd.name}}})
		})
		s.Every(fleetLivenessTimeout/2, func() { fd.dm.CheckLiveness() })
		seq := uint64(0)
		s.Every(fleetHeartbeatEvery, func() {
			seq++
			_ = sys.Bus.Send(RegionAddr, msg.Message{From: fd.addr,
				Body: msg.Heartbeat{ID: msg.Identity{Host: fd.name, PID: 1}, Seq: seq}})
		})
	}
	s.Every(fleetLivenessTimeout/2, func() { sys.Region.CheckLiveness() })
	if sys.Flight != nil {
		s.Every(fleetSampleEvery, sys.Flight.Sample)
	}
	for _, h := range sys.hosts {
		// Stagger per-host schedules across their periods.
		regAt := 2*time.Millisecond + time.Duration(h.index%1000)*time.Millisecond
		s.After(regAt, func() {
			h.register()
			if h.tel != nil {
				h.tel.Start()
			}
			sampleOff := time.Duration(h.index*37) % fleetSampleEvery
			s.After(sampleOff, func() { s.Every(fleetSampleEvery, h.sample) })
			hbOff := time.Duration(h.index*53) % fleetHeartbeatEvery
			seq := uint64(0)
			s.After(hbOff, func() {
				s.Every(fleetHeartbeatEvery, func() { seq++; h.heartbeat(seq) })
			})
		})
	}
}

// Run starts the fleet and simulates it for d of virtual time.
func (sys *FleetSystem) Run(d time.Duration) FleetResult {
	sys.Start()
	sys.Sim.RunFor(d)
	return sys.Result()
}

// Result summarizes the run so far.
func (sys *FleetSystem) Result() FleetResult {
	res := FleetResult{
		Cfg:           sys.Cfg,
		AlarmsRaised:  sys.alarmsRaised,
		Batches:       sys.Region.Batches,
		BatchedAlarms: sys.Region.BatchedAlarms,
		Probes:        sys.Region.Probes,
		Rebalances:    sys.Region.Rebalances,
		BusMessages:   sys.Bus.Sent,
		BusBytes:      sys.Metrics.Counter("msg.bus.bytes").Value(),
		Events:        sys.Sim.Fired(),
		SimTime:       sys.Sim.Now().Duration(),
	}
	for _, h := range sys.hosts {
		res.Adaptations += uint64(h.adaptations)
		res.Sheds += uint64(h.sheds)
	}
	for _, fd := range sys.Domains {
		res.FanoutQueries += fd.dm.FanoutQueries
	}
	if sys.RegionAgg != nil {
		res.Summaries = sys.RegionAgg.Ingested
	}
	if sys.Hub != nil {
		res.PolicyDeltas = sys.Metrics.Counter("repo.hub.deltas_sent").Value()
		res.PolicyGeneration = sys.Hub.Generation("mpeg_play")
		res.PolicyRelays = sys.Region.PolicyDeltasRelayed
		for _, fd := range sys.Domains {
			res.PolicyRelays += fd.dm.PolicyDeltasRelayed
		}
		for _, pa := range sys.policyAgents {
			if pa.Generation("mpeg_play") == res.PolicyGeneration {
				res.PolicyConverged++
			}
		}
	}
	res.Adapted = sys.DetectAdapt.Count()
	if p50, ok := sys.DetectAdapt.Quantile(0.50); ok {
		res.DetectAdaptP50 = time.Duration(p50)
	}
	if p99, ok := sys.DetectAdapt.Quantile(0.99); ok {
		res.DetectAdaptP99 = time.Duration(p99)
	}
	return res
}

// HostCount returns the number of simulated hosts.
func (sys *FleetSystem) HostCount() int { return len(sys.hosts) }

// FederatedView returns the region's fleet-level telemetry aggregate;
// ok is false for non-federated runs.
func (sys *FleetSystem) FederatedView() (telemetry.FederatedView, bool) {
	if sys.RegionAgg == nil {
		return telemetry.FederatedView{}, false
	}
	return sys.RegionAgg.FleetView(), true
}
