package main

// sut.go is the only file of the benchmark that names a package of the
// system under test. Everything else works through the small types
// declared here, so a seam rename in the program is a one-file
// correction of the benchmark.
//
// The live stack is assembled through the root softqos API exactly as
// `qosd -live -role agent|manager` assembles it: default JSON wire,
// default 500 ms notify pacing, each node with its own registry,
// tracer and event log. Spokes follow the "many simulated spokes
// against one real hub" discipline: one dial-only NetTransport per
// generator connection carrying a pool of coordinators.

import (
	"fmt"
	"sync/atomic"
	"time"

	"softqos"
	"softqos/internal/agent"
	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/rules"
	"softqos/internal/runtime"
	"softqos/internal/scenario"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

const (
	videoApp    = "VideoApplication"
	clientExe   = "mpeg_play"
	serverExe   = "mpeg_serve"
	policyName  = "NotifyQoSViolation"
	serverPID   = 77
	notifyPause = 500 * time.Millisecond // the coordinator's default pacing, never overridden
)

// sensorFor maps each attribute of Example 1 to the sensor watching it.
var sensorFor = map[string]string{"frame_rate": "fps_sensor", "jitter_rate": "jitter_sensor", "buffer_size": "buffer_sensor"}

var exampleSensors = map[string][]string{
	"fps_sensor":    {"frame_rate"},
	"jitter_sensor": {"jitter_rate"},
	"buffer_sensor": {"buffer_size"},
}

// nodeTel is one node's observability kit, wired the way a qosd role
// wires it: registry, tracer reporting its evictions to the registry,
// and an event log counting into the registry.
type nodeTel struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	evlog  *softqos.EventLogger
}

func newNodeTel(clock func() time.Duration) nodeTel {
	reg := telemetry.NewRegistry(clock)
	tracer := telemetry.NewTracer(clock)
	tracer.SetMetrics(reg)
	evlog := softqos.NewEventLogger(clock, 0)
	evlog.SetMetrics(reg)
	return nodeTel{reg: reg, tracer: tracer, evlog: evlog}
}

// liveStack is the system under test of the three live workloads.
type liveStack struct {
	clock func() time.Duration

	agent *softqos.LiveAgent
	hm    *softqos.LiveHostManager   // the (client-side) host manager
	dm    *softqos.LiveDomainManager // nil unless escalate
	shm   *softqos.LiveHostManager   // server-side host manager, nil unless escalate

	agentTel, hmTel, dmTel, shmTel nodeTel
	// spokeReg counts the spoke transports' msg.net.* traffic only; the
	// coordinators themselves carry a tracer and no registry.
	spokeReg *telemetry.Registry

	conns []*spokeConn
}

func liveRepository() (*softqos.RepositoryService, error) {
	svc := softqos.NewRepositoryService(softqos.NewDirectory())
	if err := svc.DefineApplication(videoApp, clientExe); err != nil {
		return nil, err
	}
	if err := svc.DefineExecutable(clientExe, exampleSensors); err != nil {
		return nil, err
	}
	err := softqos.NewAdmin(svc).AddPolicy(softqos.Example1Policy, softqos.PolicyMeta{
		Application: videoApp, Executable: clientExe})
	return svc, err
}

// newLiveStack brings up agent + host manager, and with escalate also a
// domain manager and a server-side host manager tracking mpeg_serve.
func newLiveStack(clock func() time.Duration, escalate bool) (st *liveStack, err error) {
	st = &liveStack{clock: clock, spokeReg: telemetry.NewRegistry(clock)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	svc, err := liveRepository()
	if err != nil {
		return st, err
	}
	if st.agent, err = softqos.ServeLiveAgent("127.0.0.1:0", svc); err != nil {
		return st, err
	}
	st.agentTel = newNodeTel(clock)
	st.agent.SetTelemetry(st.agentTel.reg)
	st.agent.SetEventLog(st.agentTel.evlog)

	domainTCP := ""
	if escalate {
		if st.dm, err = softqos.NewLiveDomainManager("127.0.0.1:0"); err != nil {
			return st, err
		}
		st.dmTel = newNodeTel(clock)
		st.dm.SetTelemetry(st.dmTel.reg, st.dmTel.tracer)
		st.dm.SetEventLog(st.dmTel.evlog)
		domainTCP = st.dm.Addr()

		if st.shm, err = softqos.NewLiveHostManager("127.0.0.1:0", manager.DefaultHostRules); err != nil {
			return st, err
		}
		st.shmTel = newNodeTel(clock)
		st.shm.SetTelemetry(st.shmTel.reg, st.shmTel.tracer)
		st.shm.SetEventLog(st.shmTel.evlog)
		quietHost(st.shm)
		st.shm.Sync(func() {
			st.shm.Manager().Track(st.shm.Host().StartProc(serverPID), msg.Identity{
				Host: "server-host", PID: serverPID, Executable: serverExe, Application: videoApp})
		})
		// Both host managers answer to LiveHostManagerAddr, and the
		// domain's transport prefers the connection it learned from the
		// client manager's alarms; naming the server side by its TCP
		// address keeps localization queries going to the server node.
		st.dm.RegisterAppServer(videoApp, st.shm.Addr(), serverExe)
	}
	if st.hm, err = softqos.NewLiveHostManagerDomain("127.0.0.1:0", manager.DefaultHostRules, domainTCP); err != nil {
		return st, err
	}
	st.hmTel = newNodeTel(clock)
	st.hm.SetTelemetry(st.hmTel.reg, st.hmTel.tracer)
	st.hm.SetEventLog(st.hmTel.evlog)
	quietHost(st.hm)
	return st, nil
}

// osLoadAvg is the 1-minute load average as the program itself reads it.
func osLoadAvg() float64 { return runtime.OSLoadAvg() }

// quietHost pins the host statistics the rules and the domain's queries
// read: an idle machine well below DefaultDomainRules' thresholds, and
// no /proc/loadavg read per violation.
func quietHost(lm *softqos.LiveHostManager) {
	lm.Host().SetLoadFunc(func() float64 { return 0.5 })
	lm.Host().SetRunQueueFunc(func() int { return 1 })
	lm.Host().SetMemory(1<<16, 1<<15)
}

func (st *liveStack) close() {
	for _, c := range st.conns {
		_ = c.nt.Close()
	}
	if st.hm != nil {
		_ = st.hm.Close()
	}
	if st.shm != nil {
		_ = st.shm.Close()
	}
	if st.dm != nil {
		_ = st.dm.Close()
	}
	if st.agent != nil {
		_ = st.agent.Close()
	}
}

// onAdjust routes every resource-manager action of the host manager to
// fn, which runs on the manager's dispatcher.
func (st *liveStack) onAdjust(fn func(pid, before, value int)) {
	st.hm.SetOnAdjust(func(a runtime.Adjustment) { fn(a.PID, a.Before, a.Value) })
}

// onDiagnosis routes the domain manager's network-fault diagnoses to
// fn, which runs on the domain manager's dispatcher.
func (st *liveStack) onDiagnosis(fn func(pid int)) {
	st.dm.Sync(func() {
		st.dm.Manager().OnNetworkFault = func(al msg.Alarm) { fn(al.ID.PID) }
	})
}

// barrier returns once every manager has handled what was queued for it.
func (st *liveStack) barrier() {
	st.hm.Sync(func() {})
	if st.dm != nil {
		st.dm.Sync(func() {})
		st.shm.Sync(func() {})
		st.dm.Sync(func() {})
	}
}

// hmInboxWait is how long a no-op waits in the host manager's inbox.
func (st *liveStack) hmInboxWait() time.Duration {
	t := time.Now()
	st.hm.Sync(func() {})
	return time.Since(t)
}

// presetBoost starts a process mid-cycle: its handle exists before the
// first report, with the boost the cycle would have left it.
func (st *liveStack) presetBoost(pid, boost int) {
	st.hm.Host().StartProc(pid).SetBoost(boost)
}

func (st *liveStack) boost(pid int) (int, bool) {
	p := st.hm.Host().Proc(pid)
	if p == nil {
		return 0, false
	}
	return p.Boost(), true
}

// liveCounts is what the stack's own counters read at one instant.
type liveCounts struct {
	netRetries, netReconnects, netSendFailed  uint64
	netDropped, netDroppedInvalid             uint64
	hmViolations, hmOvershoots, hmAdjustments uint64
	hmEscalations, hmRuleErrors, hmFirings    uint64
	dmAlarms, dmNetworkFaults, dmRuleErrors   uint64
	dmPending                                 int
	agentHits, agentMisses                    uint64
	mgrTracesOpen, spokeTracesOpen            int
	tracesEvicted, logEvicted                 uint64
	notifies, suppressed                      uint64
}

func (st *liveStack) regs() []*telemetry.Registry {
	out := []*telemetry.Registry{st.agentTel.reg, st.hmTel.reg, st.spokeReg}
	if st.dm != nil {
		out = append(out, st.dmTel.reg, st.shmTel.reg)
	}
	return out
}

func (st *liveStack) sumCounter(name string) (n uint64) {
	for _, r := range st.regs() {
		n += r.Counter(name).Value()
	}
	return n
}

// netTraffic reads the msg.net.* message and wire-byte totals over all
// nodes; cheap enough to take at window boundaries.
func (st *liveStack) netTraffic() (sent, bytes uint64) {
	return st.sumCounter("msg.net.sent"), st.sumCounter("msg.net.bytes")
}

// counts must not run concurrently with the generators: it reads the
// coordinators' plain counters after a Sync on their dispatcher.
func (st *liveStack) counts() liveCounts {
	var c liveCounts
	c.netRetries = st.sumCounter("msg.net.retries")
	c.netReconnects = st.sumCounter("msg.net.reconnects")
	c.netSendFailed = st.sumCounter("msg.net.send_failed")
	c.netDropped = st.sumCounter("msg.net.dropped")
	c.netDroppedInvalid = st.sumCounter("msg.net.dropped_invalid")

	c.hmViolations, c.hmOvershoots = st.hm.Violations(), st.hm.Overshoots()
	c.hmAdjustments = uint64(len(st.hm.Adjustments()))
	st.hm.Sync(func() {
		c.hmEscalations = st.hm.Manager().Escalations
		c.hmRuleErrors = st.hm.Manager().RuleErrors
	})
	for _, h := range st.hmTel.reg.Snapshot().Histograms {
		if h.Name == "manager.live.rule_firings" {
			c.hmFirings = uint64(h.Mean*float64(h.Count) + 0.5)
		}
	}
	c.mgrTracesOpen = st.hmTel.tracer.Open()
	c.tracesEvicted = st.hmTel.tracer.Evicted()
	c.logEvicted = st.agentTel.evlog.Evicted() + st.hmTel.evlog.Evicted()
	if st.dm != nil {
		st.dm.Sync(func() {
			m := st.dm.Manager()
			c.dmAlarms, c.dmNetworkFaults, c.dmRuleErrors = m.Alarms, m.NetworkFaults, m.RuleErrors
			c.dmPending = m.PendingEpisodes()
		})
		st.shm.Sync(func() { c.hmRuleErrors += st.shm.Manager().RuleErrors })
		c.mgrTracesOpen += st.dmTel.tracer.Open()
		c.tracesEvicted += st.dmTel.tracer.Evicted()
		c.logEvicted += st.dmTel.evlog.Evicted() + st.shmTel.evlog.Evicted()
	}
	cs := st.agent.CacheStats()
	c.agentHits, c.agentMisses = cs.Hits, cs.Misses
	for _, sc := range st.conns {
		c.spokeTracesOpen += sc.tracer.Open()
		c.tracesEvicted += sc.tracer.Evicted()
		sc.nt.Sync(func() {
			for _, sp := range sc.spokes {
				c.notifies += sp.coord.Notifies
				c.suppressed += sp.coord.Violations + sp.coord.Overshoots - sp.coord.Notifies
			}
		})
	}
	return c
}

// spokeConn is one generator connection: a dial-only transport node, a
// bounded tracer shared by its coordinators, and the coordinators.
type spokeConn struct {
	st      *liveStack
	nt      *msg.NetTransport
	tracer  *telemetry.Tracer
	spokes  []*spoke
	regDone chan error

	// Send-boundary timestamps of the report in flight, written on the
	// node's dispatcher (inside sync) while tracing is on.
	tracing            atomic.Bool
	sendStart, sendEnd time.Duration
	sendErrs           int
}

func (st *liveStack) newConn(name string) (*spokeConn, error) {
	nt, err := msg.NewNetTransport(name, "")
	if err != nil {
		return nil, err
	}
	nt.SetMetrics(st.spokeReg)
	nt.Route(softqos.LiveAgentAddr, st.agent.Addr())
	nt.Route(softqos.LiveHostManagerAddr, st.hm.Addr())
	sc := &spokeConn{st: st, nt: nt, tracer: telemetry.NewTracer(st.clock), regDone: make(chan error, 1)}
	st.conns = append(st.conns, sc)
	return sc, nil
}

// send is every coordinator's transmit function: the transport's Send
// with the boundary timed while tracing.
func (sc *spokeConn) send(to string, m msg.Message) error {
	traced := sc.tracing.Load()
	if traced {
		sc.sendStart = sc.st.clock()
	}
	err := sc.nt.Send(to, m)
	if traced {
		sc.sendEnd = sc.st.clock()
	}
	if err != nil {
		sc.sendErrs++
	}
	return err
}

// sync runs fn on the node's dispatcher, the documented race-free way
// to drive sensors.
func (sc *spokeConn) sync(fn func()) { sc.nt.Sync(fn) }

// spoke is one instrumented process of the pool.
type spoke struct {
	sc    *spokeConn
	pid   int
	coord *instrument.Coordinator
	fps   *instrument.ValueSensor
	buf   *instrument.ValueSensor
}

func (sc *spokeConn) addSpoke(pid int) *spoke {
	id := msg.Identity{Host: "bench-host", PID: pid, Executable: clientExe,
		Application: videoApp, UserRole: "viewer"}
	coord := instrument.NewCoordinator(id, instrument.Clock(sc.st.clock), sc.send,
		softqos.LiveAgentAddr, softqos.LiveHostManagerAddr)
	coord.SetTelemetry(nil, sc.tracer)
	sp := &spoke{sc: sc, pid: pid, coord: coord,
		fps: instrument.NewValueSensor("fps_sensor", "frame_rate", nil),
		buf: instrument.NewValueSensor("buffer_sensor", "buffer_size", nil),
	}
	jit := instrument.NewValueSensor("jitter_sensor", "jitter_rate", nil)
	coord.AddSensor(sp.fps)
	coord.AddSensor(jit)
	coord.AddSensor(sp.buf)
	jit.Set(0.3)
	sc.nt.Bind(coord.Address(), id.Host, func(m msg.Message) {
		err := coord.HandleMessage(m)
		select {
		case sc.regDone <- err:
		default:
		}
	})
	sc.spokes = append(sc.spokes, sp)
	return sp
}

// register is the paper's Overhead-1 round trip: Register to the agent
// over TCP, policy lookup, PolicySet back, install into the sensors.
func (sp *spoke) register() error {
	if err := sp.coord.Register(); err != nil {
		return err
	}
	select {
	case err := <-sp.sc.regDone:
		if err == nil && len(sp.coord.Policies()) != 1 {
			err = fmt.Errorf("pid %d: %d policies installed, want 1", sp.pid, len(sp.coord.Policies()))
		}
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("pid %d: no policy reply within 10s", sp.pid)
	}
}

// setFPS pushes one frame-rate reading and reports whether the
// coordinator sent a report for it. Call inside sync.
func (sp *spoke) setFPS(v float64) (notified bool) {
	before := sp.coord.Notifies
	sp.fps.Set(v)
	return sp.coord.Notifies != before
}

// setBuffer pushes one buffer-length reading. Call inside sync.
func (sp *spoke) setBuffer(v float64) { sp.buf.Set(v) }

// --- fleet_sim --------------------------------------------------------

// fleetOutcome is what one fleet iteration reports besides its timing.
type fleetOutcome struct {
	hosts, domains                                int
	alarms, adaptations, adapted                  uint64
	batches, batchedAlarms, probes, fanoutQueries uint64
	rebalances, policyRelays, summaries           uint64
	policyConverged                               int
	busMessages, busBytes, events                 uint64
	adaptP99                                      time.Duration
	logEvicted                                    uint64
}

// fleetRun is one `make fleet-smoke` system, stepped by the caller.
type fleetRun struct{ sys *scenario.FleetSystem }

func buildFleet(seed int64, hosts int) *fleetRun {
	return &fleetRun{sys: scenario.BuildFleet(scenario.FleetConfig{
		Seed: seed, Hosts: hosts, ProcsPerHost: 10,
		Federate: true, EventLog: true, PolicyGens: 3,
	})}
}

func (f *fleetRun) start()                  { f.sys.Start() }
func (f *fleetRun) advance(d time.Duration) { f.sys.Sim.RunFor(d) }
func (f *fleetRun) outcome() fleetOutcome {
	r := f.sys.Result()
	o := fleetOutcome{
		hosts: f.sys.HostCount(), domains: len(f.sys.Domains),
		alarms: r.AlarmsRaised, adaptations: r.Adaptations, adapted: r.Adapted,
		batches: r.Batches, batchedAlarms: r.BatchedAlarms, probes: r.Probes,
		fanoutQueries: r.FanoutQueries, rebalances: r.Rebalances,
		policyRelays: r.PolicyRelays, summaries: r.Summaries,
		policyConverged: r.PolicyConverged,
		busMessages:     r.BusMessages, busBytes: r.BusBytes, events: r.Events,
		adaptP99: r.DetectAdaptP99,
	}
	if f.sys.Log != nil {
		o.logEvicted = f.sys.Log.Evicted()
	}
	return o
}

// figure3Gate reruns the paper's Figure 3 and checks its shape: managed
// playback stays in the 23–30 fps band at every load, unmanaged playback
// collapses below 10 fps from load 3 up.
func figure3Gate(seed int64) error {
	for _, r := range scenario.Figure3(nil, 20*time.Second, 60*time.Second, seed) {
		if r.ManagedFPS < 23 || r.ManagedFPS > 30 {
			return fmt.Errorf("figure 3: managed fps %.1f at load %.2f outside 23–30", r.ManagedFPS, r.OfferedLoad)
		}
		if r.OfferedLoad >= 3 && r.NormalFPS >= 10 {
			return fmt.Errorf("figure 3: unmanaged fps %.1f at load %.2f, want < 10", r.NormalFPS, r.OfferedLoad)
		}
	}
	return nil
}

// --- probes: timed direct calls into one layer's public functions ------

// probe is one per-layer measurement: run executes the layer call n
// times. A probe may set up state when it is built.
type probe struct {
	name string
	unit string // "ns" or "us": how the per-call time is reported
	run  func(n int)
}

func examplePolicySpec() msg.PolicySpec {
	p, err := policy.ParseOne(softqos.Example1Policy)
	if err != nil {
		panic(err)
	}
	spec, err := policy.Compile(p, sensorFor)
	if err != nil {
		panic(err)
	}
	return spec
}

func nullSend(string, msg.Message) error { return nil }

var benchID = msg.Identity{Host: "bench-host", PID: 123456, Executable: clientExe,
	Application: videoApp, UserRole: "viewer"}

// passProbe is the paper's Overhead-2: one compliant pass through the
// rate and jitter sensors with Example 1 installed (a 25 fps stream on
// a stepped clock, so every pass is in band and no report is sent).
func passProbe() func(n int) {
	var now time.Duration
	clock := instrument.Clock(func() time.Duration { return now })
	coord := instrument.NewCoordinator(benchID, clock, nullSend, "/agent", "/mgr")
	fps := instrument.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second)
	jit := instrument.NewJitterSensor("jitter_sensor", "jitter_rate", clock, 40*time.Millisecond)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(instrument.NewValueSensor("buffer_sensor", "buffer_size", nil))
	if err := coord.InstallPolicies([]msg.PolicySpec{examplePolicySpec()}); err != nil {
		panic(err)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			now += 40 * time.Millisecond
			fps.Tick()
			jit.Tick()
		}
		if coord.Notifies != 0 {
			panic("compliant stream was reported")
		}
	}
}

// wireSamples are the seven message shapes of the live workloads, in
// the form the transports hand to the codec.
func wireSamples() map[string]msg.Message {
	readings := map[string]float64{"frame_rate": 22, "jitter_rate": 0.3, "buffer_size": 12}
	tc := telemetry.TraceContext{TraceID: benchID.Address() + "#4711", Span: 2}
	coordAddr := benchID.Address() + "/qosl_coordinator"
	return map[string]msg.Message{
		"register": {From: coordAddr, Body: msg.Register{ID: benchID,
			Sensors: []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}}},
		"policyset": {From: softqos.LiveAgentAddr, Body: msg.PolicySet{ID: benchID,
			Policies: []msg.PolicySpec{examplePolicySpec()}}},
		"violation": {From: coordAddr, Trace: tc, Body: msg.Violation{ID: benchID,
			Policy: policyName, Readings: readings}},
		"alarm": {From: softqos.LiveHostManagerAddr, Trace: tc, Body: msg.Alarm{ID: benchID,
			Policy: policyName, Readings: readings, Suspect: "remote"}},
		"query": {From: softqos.LiveDomainManagerAddr, Trace: tc, Body: msg.Query{
			From: softqos.LiveDomainManagerAddr,
			Keys: []string{"cpu_load", "run_queue", "mem_usage", "proc_cpu:" + serverExe}, Ref: "e4711"}},
		"report": {From: softqos.LiveHostManagerAddr, Trace: tc, Body: msg.Report{Host: "live",
			Values: map[string]float64{"cpu_load": 0.5, "run_queue": 1, "mem_usage": 0.5, "proc_cpu:" + serverExe: 0},
			Ref:    "e4711"}},
		"directive": {From: softqos.LiveDomainManagerAddr, Trace: tc, Body: msg.Directive{
			From: softqos.LiveDomainManagerAddr, Action: "boost_cpu", Target: serverExe, Amount: 10}},
	}
}

var wireKinds = []string{"register", "policyset", "violation", "alarm", "query", "report", "directive"}

// defaultWire is the format a transport uses when nobody calls
// SetWireFormat: the zero WireFormat.
var defaultWire msg.WireFormat

// codecProbes times MarshalWire/UnmarshalWire per message kind in the
// default wire format and reports each frame's size.
func codecProbes() (probes []probe, frameBytes map[string]int) {
	frameBytes = make(map[string]int)
	samples := wireSamples()
	for _, k := range wireKinds {
		m := samples[k]
		frame, err := msg.MarshalWire(defaultWire, softqos.LiveHostManagerAddr, m)
		if err != nil {
			panic(err)
		}
		frameBytes[k] = len(frame)
		probes = append(probes,
			probe{"msg.encode_ns." + k, "ns", func(n int) {
				for i := 0; i < n; i++ {
					if _, err := msg.MarshalWire(defaultWire, softqos.LiveHostManagerAddr, m); err != nil {
						panic(err)
					}
				}
			}},
			probe{"msg.decode_ns." + k, "ns", func(n int) {
				for i := 0; i < n; i++ {
					if _, _, err := msg.UnmarshalWire(frame); err != nil {
						panic(err)
					}
				}
			}})
	}
	return probes, frameBytes
}

// hostEpisode replays handleViolation's assert/Run/retract sequence on
// a standalone engine with the default host rules and no-op actions.
func hostEpisode(kind string) func(n int) {
	e := rules.NewEngine()
	noop := func([]rules.Value) error { return nil }
	for _, fn := range []string{"boost-cpu", "reclaim-cpu", "notify-domain"} {
		e.RegisterFunc(fn, noop)
	}
	if err := e.LoadRulesOrigin("host-default", manager.DefaultHostRules); err != nil {
		panic(err)
	}
	relation, fpsV, bufV := "violation", 22.0, 12.0
	switch kind {
	case "overshoot":
		relation, fpsV = "overshoot", 30.0
	case "escalate":
		bufV = 2.0
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			psym := "p" + fmt.Sprint(100000+i%4096)
			e.AssertF(relation, psym, policyName)
			e.AssertF("reading", psym, "frame_rate", fpsV)
			e.AssertF("reading", psym, "jitter_rate", 0.3)
			e.AssertF("reading", psym, "buffer_size", bufV)
			e.AssertF("host-load", 0.5)
			e.AssertF("proc-boost", psym, 0.0)
			if f, err := e.Run(100); err != nil || f != 1 {
				panic(fmt.Sprintf("host %s episode fired %d rules, err %v", kind, f, err))
			}
			e.RetractMatching(rules.F("violation", psym, "?")...)
			e.RetractMatching(rules.F("overshoot", psym, "?")...)
			e.RetractMatching(rules.F("reading", psym, "?", "?")...)
			e.RetractMatching(rules.F("host-load", "?")...)
			e.RetractMatching(rules.F("proc-boost", psym, "?")...)
			e.RetractMatching(rules.F("diagnosis", psym, "?")...)
		}
	}
}

// domainEpisode replays handleReport's sequence on the default domain
// rules with the network-fault facts of live_escalate.
func domainEpisode() func(n int) {
	e := rules.NewEngine()
	noop := func([]rules.Value) error { return nil }
	for _, fn := range []string{"boost-server", "grow-server-memory", "restart-server", "network-fault"} {
		e.RegisterFunc(fn, noop)
	}
	if err := e.LoadRulesOrigin("domain-default", manager.DefaultDomainRules); err != nil {
		panic(err)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			ref := "e" + fmt.Sprint(i)
			e.AssertF("episode", ref, videoApp)
			e.AssertF("server-exe", ref, serverExe)
			e.AssertF("server-report", ref, "cpu_load", 0.5)
			e.AssertF("server-report", ref, "run_queue", 1.0)
			e.AssertF("server-report", ref, "mem_usage", 0.5)
			e.AssertF("server-report", ref, "proc_cpu:"+serverExe, 0.0)
			e.AssertF("server-proc-alive", ref)
			if f, err := e.Run(100); err != nil || f != 1 {
				panic(fmt.Sprintf("domain episode fired %d rules, err %v", f, err))
			}
			e.RetractMatching(rules.F("episode", ref, "?")...)
			e.RetractMatching(rules.F("server-exe", ref, "?")...)
			e.RetractMatching(rules.F("server-proc-alive", ref)...)
			e.RetractMatching(rules.F("server-report", ref, "?", "?")...)
		}
	}
}

// agentRegisterProbe times PolicyAgent.HandleMessage(Register) for new
// registrants against a roster already holding `roster` processes.
func agentRegisterProbe(roster int) func(n int) {
	svc, err := liveRepository()
	if err != nil {
		panic(err)
	}
	pa := agent.New(softqos.LiveAgentAddr, svc, nullSend)
	next := 0
	reg := func() {
		id := benchID
		id.PID = 100000 + next
		next++
		pa.HandleMessage(msg.Message{From: id.Address() + "/qosl_coordinator",
			Body: msg.Register{ID: id, Sensors: []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}}})
	}
	for i := 0; i < roster; i++ {
		reg()
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			reg()
		}
	}
}

// netRTTProbe is an idle echo between two transport nodes over
// loopback TCP, one message outstanding.
func netRTTProbe() (run func(n int), stop func()) {
	server, err := msg.NewNetTransport("rtt-server", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	client, err := msg.NewNetTransport("rtt-client", "")
	if err != nil {
		panic(err)
	}
	server.Bind("/rtt/echo", "rtt-server", func(m msg.Message) {
		_ = server.Send(m.From, msg.Message{From: "/rtt/echo", Body: msg.Ack{Ref: "pong", OK: true}})
	})
	pong := make(chan struct{}, 1)
	client.Bind("/rtt/client", "rtt-client", func(msg.Message) { pong <- struct{}{} })
	client.Route("/rtt/echo", server.Addr())
	ping := msg.Message{From: "/rtt/client", Body: msg.Heartbeat{ID: benchID, Seq: 1}}
	run = func(n int) {
		for i := 0; i < n; i++ {
			if err := client.Send("/rtt/echo", ping); err != nil {
				panic(err)
			}
			<-pong
		}
	}
	return run, func() { _ = client.Close(); _ = server.Close() }
}

// layerProbes builds every P-sourced per-layer measurement. roster is
// the workload's pool size (the agent probe's roster). The returned
// stop releases the sockets the probes hold.
func layerProbes(roster int) (probes []probe, counts map[string]float64, stop func()) {
	counts = make(map[string]float64)
	spec := examplePolicySpec()

	// instrument
	coord := instrument.NewCoordinator(benchID, func() time.Duration { return 0 }, nullSend, "/agent", "/mgr")
	coord.AddSensor(instrument.NewValueSensor("fps_sensor", "frame_rate", nil))
	coord.AddSensor(instrument.NewValueSensor("jitter_sensor", "jitter_rate", nil))
	coord.AddSensor(instrument.NewValueSensor("buffer_sensor", "buffer_size", nil))
	probes = append(probes, probe{"instrument.install_us", "us", func(n int) {
		for i := 0; i < n; i++ {
			if err := coord.InstallPolicies([]msg.PolicySpec{spec}); err != nil {
				panic(err)
			}
		}
	}})

	// msg
	cp, frameBytes := codecProbes()
	probes = append(probes, cp...)
	for k, b := range frameBytes {
		counts["msg.frame_bytes."+k] = float64(b)
	}
	rtt, stopRTT := netRTTProbe()
	probes = append(probes, probe{"msg.net_rtt_us", "us", rtt})

	s := sim.New(1)
	bus := msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	bus.SetMetrics(telemetry.NewRegistry(nil))
	bus.Bind("/bus/sink", "h", func(msg.Message) {})
	alarm := wireSamples()["alarm"]
	probes = append(probes, probe{"msg.bus_send_ns", "ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := bus.Send("/bus/sink", alarm); err != nil {
				panic(err)
			}
			s.Step()
		}
	}})

	// rules
	viol, over, esc := hostEpisode("violation"), hostEpisode("overshoot"), hostEpisode("escalate")
	probes = append(probes,
		probe{"rules.host_violation_us", "us", viol},
		probe{"rules.host_overshoot_us", "us", over},
		probe{"rules.host_escalate_us", "us", esc},
		probe{"rules.domain_episode_us", "us", domainEpisode()})

	// agent, repository, policy
	probes = append(probes, probe{"agent.register_us", "us", agentRegisterProbe(roster)})
	svc, err := liveRepository()
	if err != nil {
		panic(err)
	}
	probes = append(probes, probe{"repository.policies_for_us", "us", func(n int) {
		for i := 0; i < n; i++ {
			if specs, err := svc.PoliciesFor(benchID); err != nil || len(specs) != 1 {
				panic(fmt.Sprintf("PoliciesFor: %d specs, err %v", len(specs), err))
			}
		}
	}})
	parsed, err := policy.ParseOne(softqos.Example1Policy)
	if err != nil {
		panic(err)
	}
	probes = append(probes, probe{"policy.compile_us", "us", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := policy.Compile(parsed, sensorFor); err != nil {
				panic(err)
			}
		}
	}})

	// telemetry
	wall := runtime.Wall()
	tr := telemetry.NewTracer(telemetry.Clock(wall))
	subject := benchID.Address()
	hist := telemetry.NewHistogram(telemetry.Clock(wall), 0)
	sk := telemetry.NewSketch()
	lg := eventlog.New(telemetry.Clock(wall), 0)
	probes = append(probes,
		probe{"telemetry.tracer_episode_ns", "ns", func(n int) {
			for i := 0; i < n; i++ {
				ctx := tr.Begin(subject, policyName, "coordinator", "policy expression false")
				ctx = tr.EventCtx(ctx, subject, policyName, "coordinator", telemetry.StageNotify, "report")
				ctx = tr.EventCtx(ctx, subject, policyName, "hostmanager", telemetry.StageDiagnose, "episode")
				tr.EventCtx(ctx, subject, policyName, "cpu-manager", telemetry.StageAdapt, "boost")
				tr.Resolve(subject, policyName)
			}
		}},
		probe{"telemetry.histogram_observe_ns", "ns", func(n int) {
			for i := 0; i < n; i++ {
				hist.Observe(float64(50000 + i%1000))
			}
		}},
		probe{"telemetry.sketch_observe_ns", "ns", func(n int) {
			for i := 0; i < n; i++ {
				sk.Observe(float64(50000 + i%1000))
			}
		}},
		probe{"telemetry.eventlog_append_ns", "ns", func(n int) {
			for i := 0; i < n; i++ {
				lg.Event(eventlog.Warn, "hostmanager", "untracked_violation", eventlog.Str("subject", subject))
			}
		}})
	return probes, counts, stopRTT
}
