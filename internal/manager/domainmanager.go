package manager

import (
	"fmt"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/rules"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// DefaultDomainRules is the QoS Domain Manager rule set of Section 5.3,
// extended with the paper's process-failure adaptation ("restarting a
// failed process"): a server-side report that omits the server process's
// CPU statistic means the process has died, and the domain manager
// directs its host manager to restart it.
//
// upon an alarm from a client-side host manager, the server-side host
// manager is queried for CPU load (both the damped load average and the
// instantaneous run-queue length, whose maximum avoids the load average's
// start-up lag) and memory usage; a high server CPU load (or memory
// pressure) indicts the server machine, otherwise the fault is attributed
// to the network.
const DefaultDomainRules = `
(deffacts domain-thresholds
  (cpu-load-threshold 2.0)
  (mem-threshold 0.9))

(defrule server-process-dead
  (declare (salience 20))
  (episode ?e ?app)
  (server-exe ?e ?exe)
  (not (server-proc-alive ?e))
  =>
  (call restart-server ?e))

(defrule server-cpu-starved
  (declare (salience 10))
  (episode ?e ?app)
  (server-proc-alive ?e)
  (server-report ?e cpu_load ?l)
  (server-report ?e run_queue ?q)
  (cpu-load-threshold ?t)
  (test (>= (max ?l ?q) ?t))
  =>
  (call boost-server ?e 10))

(defrule server-memory-starved
  (episode ?e ?app)
  (server-proc-alive ?e)
  (server-report ?e cpu_load ?l)
  (server-report ?e run_queue ?q)
  (cpu-load-threshold ?t)
  (test (< (max ?l ?q) ?t))
  (server-report ?e mem_usage ?m)
  (mem-threshold ?mt)
  (test (>= ?m ?mt))
  =>
  (call grow-server-memory ?e 1024))

(defrule network-fault
  (episode ?e ?app)
  (server-proc-alive ?e)
  (server-report ?e cpu_load ?l)
  (server-report ?e run_queue ?q)
  (cpu-load-threshold ?t)
  (test (< (max ?l ?q) ?t))
  (server-report ?e mem_usage ?m)
  (mem-threshold ?mt)
  (test (< ?m ?mt))
  =>
  (call network-fault ?e))
`

// defaultDomainProgram is DefaultDomainRules compiled once per process:
// every domain manager loads this one read-only program.
var defaultDomainProgram = mustCompile("domain-default", DefaultDomainRules)

// Load levels the hierarchy judges host cpu_load by.
const (
	// LoadThreshold equals DefaultDomainRules' cpu-load-threshold fact:
	// the load at which a fleet host raises an alarm and the domain rules
	// indict a server, and the worst-host load at which the region orders
	// a shed.
	LoadThreshold = 2.0
	// SevereLoad grades an alarm for the uplink: one whose cpu_load
	// reading reaches it is coalesced at EscalationSeverity and flushes
	// the pending batch at once; every other alarm has severity 1.
	SevereLoad = 4.0
)

// serverRef locates the server side of a managed application.
type serverRef struct {
	hostMgrAddr string
	executable  string
	// queryKeys is the key list of every localization query for this
	// server, rendered once per executable and shared by every
	// application it serves and every query sent; nothing writes to a
	// message's slices. Its last key is the server process's CPU statistic.
	queryKeys []string
}

func (s serverRef) procKey() string { return s.queryKeys[len(s.queryKeys)-1] }

// episode is one in-flight localization: an alarm awaiting the
// server-side report.
type episode struct {
	alarm   msg.Alarm
	subject string // alarm.ID.Address(): the trace subject, rendered once
	server  serverRef
	// ctx is the trace context localization spans chain under: initially
	// the context the alarm carried (the client host manager's escalate
	// span), advancing as local spans are recorded.
	ctx telemetry.TraceContext
}

// fanout is one in-flight downward query: a parent tier asked this
// domain for aggregate statistics, and the domain fanned the question
// out to its registered hosts. pending tracks exactly which hosts have
// not reported yet, so a retry re-queries only the non-responders.
type fanout struct {
	requester string   // address the aggregate Report goes back to
	ref       string   // requester's correlation tag, echoed on the reply
	keys      []string // statistics asked for
	asked     int
	pending   map[string]string  // host name -> host manager address, not yet reported
	values    map[string]float64 // aggregation: "<key>_max" across reporters
	hotHost   string             // host manager address with the max cpu_load so far
	hotLoad   float64
	reports   int
	ctx       telemetry.TraceContext
}

// DomainConfig is what a domain manager is configured with beyond its
// address and transport. The zero value is the flat (2-tier) topology's
// domain manager: nothing is swept, batched upward or relayed.
type DomainConfig struct {
	// Liveness arms episode and fan-out timeouts (a report that does not
	// arrive within Timeout is asked for once more, then abandoned with
	// the reason traced) and the eviction of silent hosts.
	Liveness
	// HostTimeout decouples host-roster eviction from the (typically much
	// shorter) episode timeout: hosts heartbeat on a slow period and must
	// not be evicted between beats. Zero uses Liveness.Timeout.
	HostTimeout time.Duration
	// Uplink batches this domain's alarm traffic toward its parent tier;
	// a domain with an uplink traces its spans at TierDomain.
	Uplink *AlarmCoalescer
	// SummarySink receives inbound host telemetry summaries (typically a
	// SummaryAggregator's Ingest); without one they are dropped.
	SummarySink func(msg.TelemetrySummary)
	// PolicyAgents receive the repository policy deltas this domain
	// relays — the terminal hop of the hub → region → domain → agent
	// distribution path. Without any, deltas are dropped.
	PolicyAgents []string
	// Kit is what the manager records on (see SetKit).
	Kit obs.Kit
}

// DomainManager locates sources of problems spanning hosts and issues
// corrective directives to host managers.
type DomainManager struct {
	node

	engine  *rules.Engine
	servers map[string]serverRef // application -> server side
	// queryKeys holds one localization key list per server executable.
	queryKeys map[string][]string
	episodes  requests[episode] // "e" refs

	// Hierarchy state, empty in flat (2-tier) topologies. Hosts register
	// with the domain exactly as coordinators register with the policy
	// agent; the same heartbeat/liveness machinery then governs them.
	hosts        roster[string, string] // host name -> host manager address
	fanouts      requests[fanout]       // "f" refs
	tier         int                    // trace tier depth (0 = flat, 2 = domain under a region)
	lastHot      string                 // most recently implicated host manager address
	uplink       *AlarmCoalescer
	policyAgents []string

	// OnNetworkFault, if set, is invoked when an episode is diagnosed as
	// a network problem (scenarios hook rerouting here: "rerouting
	// traffic around a congested network switch").
	OnNetworkFault func(al msg.Alarm)

	// OnHostEvicted, if set, is invoked with each host name the liveness
	// sweep evicts from the roster. Live policy distribution wires the
	// rollout controller's HostEvicted here so a canary whose cohort
	// host dies mid-bake is rolled back rather than judged on silence.
	OnHostEvicted func(host string)

	// Statistics.
	Alarms           uint64
	ServerFaults     uint64
	MemoryFaults     uint64
	NetworkFaults    uint64
	Restarts         uint64
	RuleErrors       uint64
	QueryRetries     uint64
	EpisodeTimeouts  uint64
	Fanouts          uint64 // downward fan-out queries answered
	FanoutQueries    uint64 // per-host sub-queries those fanned out to
	HostsEvicted     uint64
	DirectivesRouted uint64 // parent directives routed down to a host
	// PolicyDeltasRelayed counts policy deltas forwarded to policy
	// agents (fan-out included).
	PolicyDeltasRelayed uint64

	// Telemetry (optional; see SetKit). Nil handles are no-ops.
	metrics dmMetrics
	epCur   *episode // episode being diagnosed (explanation attribution)
	epFacts []int    // ids of the facts asserted for it
}

// dmMetrics holds the domain manager's pre-resolved metric handles.
type dmMetrics struct {
	alarms        *telemetry.Counter
	serverFaults  *telemetry.Counter
	memoryFaults  *telemetry.Counter
	networkFaults *telemetry.Counter
	restarts      *telemetry.Counter
	ruleErrors    *telemetry.Counter
	queryRetries  *telemetry.Counter
	timeouts      *telemetry.Counter
	fanouts       *telemetry.Counter
	fanoutSubs    *telemetry.Counter
	policyRelays  *telemetry.Counter
	firings       *telemetry.Sketch
}

// NewDomainManager creates a domain manager bound to addr, loading the
// default rule set.
func NewDomainManager(addr string, send Send, cfg DomainConfig) *DomainManager {
	dm := &DomainManager{
		node: node{addr: addr, send: send, component: "domainmanager",
			live: cfg.Liveness, sink: cfg.SummarySink},
		engine:       rules.NewEngine(),
		servers:      make(map[string]serverRef),
		queryKeys:    make(map[string][]string),
		episodes:     requests[episode]{},
		fanouts:      requests[fanout]{},
		uplink:       cfg.Uplink,
		policyAgents: cfg.PolicyAgents,
	}
	if cfg.Uplink != nil {
		dm.tier = TierDomain
	}
	if cfg.HostTimeout <= 0 {
		cfg.HostTimeout = cfg.Timeout
	}
	dm.hosts = roster[string, string]{kind: "host", timeout: cfg.HostTimeout, evicted: &dm.HostsEvicted,
		bind: func(_ string, addr *string, from string) { *addr = from },
		describe: func(name string, _ *string, silent time.Duration) []eventlog.Field {
			return []eventlog.Field{eventlog.Str("host", name), eventlog.Num("silent_ns", float64(silent))}
		},
		onEvict: func(name string, _ *string) {
			if dm.OnHostEvicted != nil {
				dm.OnHostEvicted(name)
			}
		}}
	dm.registerCallbacks()
	dm.engine.Load(defaultDomainProgram)
	dm.SetKit(cfg.Kit)
	return dm
}

// SetKit wires the manager to kit: "domain.*" metrics, localization
// spans and rule explanations on the tracer — attributed to the
// originating client violation's trace through the alarm identity each
// episode carries — and silent decisions on the event log (component
// "domainmanager"). NewDomainManager calls it; a second call replaces
// all three.
//
// Frozen-harness shim; goes with ROADMAP item 13.
func (dm *DomainManager) SetKit(kit obs.Kit) {
	dm.tracer, dm.evlog = kit.Tracer, kit.Log
	dm.engine.OnFiring = nil
	if kit.Tracer != nil {
		dm.engine.OnFiring = dm.explainFiring
	}
	dm.metrics, dm.hosts.metric = dmMetrics{}, nil
	reg := kit.Metrics
	if reg == nil {
		return
	}
	dm.metrics = dmMetrics{
		alarms:        reg.Counter("domain.alarms"),
		serverFaults:  reg.Counter("domain.server_faults"),
		memoryFaults:  reg.Counter("domain.memory_faults"),
		networkFaults: reg.Counter("domain.network_faults"),
		restarts:      reg.Counter("domain.restarts"),
		ruleErrors:    reg.Counter("domain.rule_errors"),
		queryRetries:  reg.Counter("domain.query_retries"),
		timeouts:      reg.Counter("domain.episode_timeouts"),
		fanouts:       reg.Counter("domain.fanouts"),
		fanoutSubs:    reg.Counter("domain.fanout_queries"),
		policyRelays:  reg.Counter("domain.policy_deltas_relayed"),
		firings:       reg.Sketch("domain.rule_firings"),
	}
	dm.hosts.metric = reg.Counter("domain.hosts_evicted")
}

// traceEvent records a span on the trace of the client violation that
// opened the episode, chained under the episode's current context, which
// advances to the new span (locate then directive nest causally). It
// returns the span's context for propagation on outgoing directives.
func (dm *DomainManager) traceEvent(ep *episode, stage, detail string) telemetry.TraceContext {
	if dm.tracer == nil {
		return telemetry.TraceContext{}
	}
	ctx := dm.tracer.EventCtxTier(ep.ctx, ep.subject, ep.alarm.Policy,
		"domainmanager", stage, detail, dm.tier)
	if ctx.Valid() {
		ep.ctx = ctx
	}
	return ctx
}

// explainFiring attaches each localization rule firing to the client
// violation's trace as an explanation record.
func (dm *DomainManager) explainFiring(f rules.Firing) {
	if dm.tracer == nil || dm.epCur == nil {
		return
	}
	ep := dm.epCur
	dm.tracer.Explain(ep.ctx, ep.subject, ep.alarm.Policy, explanation(dm.addr, f))
}

// Engine exposes the inference engine.
func (dm *DomainManager) Engine() *rules.Engine { return dm.engine }

// LoadRules replaces the rule set at run time.
func (dm *DomainManager) LoadRules(src string) error { return dm.engine.LoadRules(src) }

// RegisterAppServer tells the domain manager which host manager and
// executable serve an application (its configuration knowledge).
func (dm *DomainManager) RegisterAppServer(application, hostMgrAddr, executable string) {
	keys := dm.queryKeys[executable]
	if keys == nil {
		keys = []string{"cpu_load", "run_queue", "mem_usage", "proc_cpu:" + executable}
		dm.queryKeys[executable] = keys
	}
	dm.servers[application] = serverRef{hostMgrAddr: hostMgrAddr, executable: executable, queryKeys: keys}
}

// HostCount returns how many host managers are registered below this
// domain manager.
func (dm *DomainManager) HostCount() int { return dm.hosts.len() }

func (dm *DomainManager) registerCallbacks() {
	dm.engine.RegisterFunc("boost-server", func(args []rules.Value) error {
		ep, err := dm.episodeArg(args, 0)
		if err != nil {
			return err
		}
		amount := 10.0
		if len(args) >= 2 && args[1].Kind == rules.NumberKind {
			amount = args[1].Num
		}
		dm.ServerFaults++
		dm.metrics.serverFaults.Inc()
		dm.traceEvent(ep, telemetry.StageLocate, "server CPU starved")
		ctx := dm.traceEvent(ep, telemetry.StageDirective,
			fmt.Sprintf("boost_cpu %s %+g -> %s", ep.server.executable, amount, ep.server.hostMgrAddr))
		return dm.send(ep.server.hostMgrAddr, msg.Message{
			From:  dm.addr,
			Trace: ctx,
			Body: msg.Directive{From: dm.addr, Action: "boost_cpu",
				Target: ep.server.executable, Amount: amount},
		})
	})
	dm.engine.RegisterFunc("grow-server-memory", func(args []rules.Value) error {
		ep, err := dm.episodeArg(args, 0)
		if err != nil {
			return err
		}
		pages := 1024.0
		if len(args) >= 2 && args[1].Kind == rules.NumberKind {
			pages = args[1].Num
		}
		dm.MemoryFaults++
		dm.metrics.memoryFaults.Inc()
		dm.traceEvent(ep, telemetry.StageLocate, "server memory pressure")
		ctx := dm.traceEvent(ep, telemetry.StageDirective,
			fmt.Sprintf("adjust_memory %s %+g pages -> %s", ep.server.executable, pages, ep.server.hostMgrAddr))
		return dm.send(ep.server.hostMgrAddr, msg.Message{
			From:  dm.addr,
			Trace: ctx,
			Body: msg.Directive{From: dm.addr, Action: "adjust_memory",
				Target: ep.server.executable, Amount: pages},
		})
	})
	dm.engine.RegisterFunc("restart-server", func(args []rules.Value) error {
		ep, err := dm.episodeArg(args, 0)
		if err != nil {
			return err
		}
		dm.Restarts++
		dm.metrics.restarts.Inc()
		dm.traceEvent(ep, telemetry.StageLocate, "server process dead")
		ctx := dm.traceEvent(ep, telemetry.StageDirective,
			fmt.Sprintf("restart_proc %s -> %s", ep.server.executable, ep.server.hostMgrAddr))
		return dm.send(ep.server.hostMgrAddr, msg.Message{
			From:  dm.addr,
			Trace: ctx,
			Body: msg.Directive{From: dm.addr, Action: "restart_proc",
				Target: ep.server.executable},
		})
	})
	dm.engine.RegisterFunc("network-fault", func(args []rules.Value) error {
		ep, err := dm.episodeArg(args, 0)
		if err != nil {
			return err
		}
		dm.NetworkFaults++
		dm.metrics.networkFaults.Inc()
		dm.traceEvent(ep, telemetry.StageLocate, "network congestion")
		if dm.OnNetworkFault != nil {
			dm.traceEvent(ep, telemetry.StageDirective, "reroute around congested switch")
			dm.OnNetworkFault(ep.alarm)
		}
		return nil
	})
}

func (dm *DomainManager) episodeArg(args []rules.Value, i int) (*episode, error) {
	if len(args) <= i || args[i].Kind != rules.SymbolKind {
		return nil, fmt.Errorf("argument %d: expected episode symbol", i)
	}
	ep := dm.episodes.get(args[i].Sym)
	if ep == nil {
		return nil, fmt.Errorf("unknown episode %s", args[i].Sym)
	}
	return ep, nil
}

// HandleMessage processes one inbound management message.
func (dm *DomainManager) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case msg.Alarm:
		dm.handleAlarm(body, m.Trace)
	case msg.Report:
		dm.handleReport(body)
	case msg.Register:
		registerChild(&dm.node, &dm.hosts, body.ID, m.From)
	case msg.Heartbeat:
		heartbeatChild(&dm.node, &dm.hosts, body, m.From)
	case msg.Query:
		dm.handleTierQuery(body, m.Trace)
	case msg.Directive:
		dm.handleTierDirective(body, m.Trace)
	case msg.TelemetrySummary:
		dm.summary(body)
	case msg.PolicyDelta:
		n := dm.relay(m, dm.policyAgents)
		dm.PolicyDeltasRelayed += n
		dm.metrics.policyRelays.Add(n)
	}
}

// handleAlarm opens an episode and interrogates the server-side host
// manager ("Upon receiving an alarm report from the client-side QoS Host
// Manager, ask the corresponding server-side QoS Host Manager for CPU
// load and memory usage").
func (dm *DomainManager) handleAlarm(al msg.Alarm, tc telemetry.TraceContext) {
	dm.Alarms++
	dm.metrics.alarms.Inc()
	// Hierarchical uplink: the domain's alarm activity coalesces upward
	// regardless of whether local diagnosis succeeds, so the region tier
	// sees aggregate pressure instead of per-host floods.
	if dm.uplink != nil {
		sev := 1
		if al.Readings["cpu_load"] >= SevereLoad {
			sev = EscalationSeverity
		}
		_ = dm.uplink.AddCtx(al, sev, tc)
	}
	server, ok := dm.servers[al.ID.Application]
	if !ok {
		dm.RuleErrors++
		dm.metrics.ruleErrors.Inc()
		dm.evlog.EventCtx(tc, eventlog.Warn, "domainmanager", "unknown_application",
			eventlog.Str("application", al.ID.Application),
			eventlog.Str("subject", al.ID.Address()))
		return
	}
	ref := dm.newRef("e")
	dm.episodes.open(ref, episode{alarm: al, subject: al.ID.Address(), server: server, ctx: tc}, dm.now())
	_ = dm.send(server.hostMgrAddr, msg.Message{
		From:  dm.addr,
		Trace: tc,
		Body:  msg.Query{From: dm.addr, Keys: server.queryKeys, Ref: ref},
	})
}

// CheckLiveness sweeps, in this order, pending fan-outs (retried with
// the scope narrowed to the hosts that have not reported, then completed
// with the partial aggregate), the host roster, and pending episodes
// (re-queried once — the query may have been lost in flight — then
// closed with an "abandoned" span on the client violation's trace, so no
// episode pends forever on a dead host manager).
func (dm *DomainManager) CheckLiveness() (retried, abandoned int) {
	if !dm.sweeping() {
		return 0, 0
	}
	now := dm.now()
	retried, abandoned = dm.fanouts.sweep(now, dm.live.Timeout, dm.retryFanout, dm.abandonFanout)
	dm.hosts.sweep(&dm.node, now)
	r, a := dm.episodes.sweep(now, dm.live.Timeout, dm.retryEpisode, dm.abandonEpisode)
	retried, abandoned = retried+r, abandoned+a
	dm.QueryRetries += uint64(retried)
	dm.metrics.queryRetries.Add(uint64(retried))
	dm.EpisodeTimeouts += uint64(abandoned)
	dm.metrics.timeouts.Add(uint64(abandoned))
	return retried, abandoned
}

func (dm *DomainManager) retryEpisode(ref string, ep *episode) {
	dm.traceEvent(ep, telemetry.StageEscalate,
		"re-query "+ep.server.hostMgrAddr+" (report timed out)")
	dm.evlog.EventCtx(ep.ctx, eventlog.Info, "domainmanager", "episode_retry",
		eventlog.Str("ref", ref), eventlog.Str("server", ep.server.hostMgrAddr))
	_ = dm.send(ep.server.hostMgrAddr, msg.Message{
		From:  dm.addr,
		Trace: ep.ctx,
		Body:  msg.Query{From: dm.addr, Keys: ep.server.queryKeys, Ref: ref},
	})
}

func (dm *DomainManager) abandonEpisode(ref string, ep *episode) {
	dm.traceEvent(ep, telemetry.StageAbandoned,
		"localization abandoned: no report from "+ep.server.hostMgrAddr+" after retry")
	dm.evlog.EventCtx(ep.ctx, eventlog.Warn, "domainmanager", "episode_timeout",
		eventlog.Str("ref", ref), eventlog.Str("server", ep.server.hostMgrAddr))
}

// PendingEpisodes returns how many localizations await a server report.
func (dm *DomainManager) PendingEpisodes() int { return len(dm.episodes) }

// handleReport closes the episode: asserts the server statistics as
// facts, forward-chains the diagnosis, and cleans up. A report answering
// a fan-out folds into its aggregate instead.
func (dm *DomainManager) handleReport(r msg.Report) {
	if f := dm.fanouts.get(r.Ref); f != nil {
		dm.handleFanoutReport(r.Ref, f, r)
		return
	}
	ep := dm.episodes.get(r.Ref)
	if ep == nil {
		return
	}
	dm.hosts.contact(r.Host, dm.now())
	// The episode's facts, statistics in key order (fact ids decide
	// recency, hence which of two equal-salience rules fires first).
	e, ref := dm.engine, rules.Sym(r.Ref)
	ids := append(dm.epFacts[:0],
		e.Assert(rules.Sym("episode"), ref, rules.Sym(orUnknown(ep.alarm.ID.Application))),
		e.Assert(rules.Sym("server-exe"), ref, rules.Sym(ep.server.executable)))
	var buf [8]string
	for _, k := range sortedKeys(r.Values, buf[:0]) {
		ids = append(ids, e.Assert(rules.Sym("server-report"), ref, rules.Sym(k), rules.Num(r.Values[k])))
	}
	if _, alive := r.Values[ep.server.procKey()]; alive {
		ids = append(ids, e.Assert(rules.Sym("server-proc-alive"), ref))
	}
	dm.epCur = ep
	fired, err := e.Run(100)
	dm.epCur = nil
	dm.metrics.firings.Observe(float64(fired))
	if err != nil {
		dm.RuleErrors++
		dm.metrics.ruleErrors.Inc()
	}
	for _, id := range ids {
		e.Retract(id)
	}
	dm.epFacts = ids
	delete(dm.episodes, r.Ref)
}

// handleTierQuery answers a downward localization query from the parent
// tier by fanning it out to this domain's hosts — and only them. The
// per-host replies are aggregated (max per statistic) into one Report
// back to the requester, so the parent never sees per-host traffic.
func (dm *DomainManager) handleTierQuery(q msg.Query, tc telemetry.TraceContext) {
	if q.From == "" {
		return
	}
	dm.Fanouts++
	if dm.hosts.len() == 0 {
		_ = dm.send(q.From, msg.Message{From: dm.addr, Trace: tc, Body: msg.Report{
			Host: dm.addr, Ref: q.Ref,
			Values: map[string]float64{"hosts_asked": 0, "hosts_reporting": 0},
		}})
		return
	}
	iref := dm.newRef("f")
	f := dm.fanouts.open(iref, fanout{
		requester: q.From,
		ref:       q.Ref,
		keys:      q.Keys,
		asked:     dm.hosts.len(),
		pending:   make(map[string]string, dm.hosts.len()),
		values:    make(map[string]float64, len(q.Keys)),
		ctx:       tc,
	}, dm.now())
	dm.metrics.fanouts.Inc()
	dm.metrics.fanoutSubs.Add(uint64(f.asked))
	// Every host is pending before the first query goes out, so a reply
	// delivered synchronously cannot complete the fan-out early.
	for _, name := range dm.hosts.order {
		f.pending[name] = *dm.hosts.get(name)
	}
	dm.FanoutQueries += uint64(f.asked)
	// Bodies are immutable values: every host gets the one boxed query.
	sub := msg.Message{From: dm.addr, Trace: tc, Body: msg.Query{From: dm.addr, Keys: q.Keys, Ref: iref}}
	for _, name := range dm.hosts.order {
		_ = dm.send(*dm.hosts.get(name), sub)
	}
}

// handleFanoutReport folds one host's reply into the fan-out aggregate
// and completes the fan-out when every host (or every surviving host,
// after retry/abandonment) has answered.
func (dm *DomainManager) handleFanoutReport(iref string, f *fanout, r msg.Report) {
	addr, waiting := f.pending[r.Host]
	if !waiting {
		return // duplicate or post-abandon straggler
	}
	delete(f.pending, r.Host)
	f.reports++
	dm.hosts.contact(r.Host, dm.now())
	for k, v := range r.Values {
		if cur, ok := f.values[k+"_max"]; !ok || v > cur {
			f.values[k+"_max"] = v
		}
		if k == "cpu_load" && (f.hotHost == "" || v > f.hotLoad) {
			f.hotHost, f.hotLoad = addr, v
		}
	}
	if len(f.pending) == 0 {
		dm.completeFanout(iref, f)
	}
}

// completeFanout replies to the requester with the aggregate and closes
// the fan-out. The domain remembers the hottest host so a subsequent
// downward directive can be routed to it.
func (dm *DomainManager) completeFanout(iref string, f *fanout) {
	f.values["hosts_asked"] = float64(f.asked)
	f.values["hosts_reporting"] = float64(f.reports)
	if f.hotHost != "" {
		dm.lastHot = f.hotHost
	}
	_ = dm.send(f.requester, msg.Message{From: dm.addr, Trace: f.ctx, Body: msg.Report{
		Host: dm.addr, Values: f.values, Ref: f.ref,
	}})
	delete(dm.fanouts, iref)
}

// retryFanout re-queries ONLY the hosts that have not reported: the
// hosts that did answer must not be asked again.
func (dm *DomainManager) retryFanout(iref string, f *fanout) {
	dm.evlog.EventCtx(f.ctx, eventlog.Info, "domainmanager", "fanout_retry",
		eventlog.Str("ref", iref), eventlog.Int("pending", len(f.pending)))
	sub := msg.Message{From: dm.addr, Trace: f.ctx, Body: msg.Query{From: dm.addr, Keys: f.keys, Ref: iref}}
	for _, name := range sortedKeys(f.pending, nil) {
		_ = dm.send(f.pending[name], sub)
	}
}

// abandonFanout completes an expired fan-out with the partial aggregate
// rather than leaving it pending forever.
func (dm *DomainManager) abandonFanout(iref string, f *fanout) {
	dm.evlog.EventCtx(f.ctx, eventlog.Warn, "domainmanager", "fanout_abandoned",
		eventlog.Str("ref", iref), eventlog.Int("reported", f.reports),
		eventlog.Int("asked", f.asked))
	dm.completeFanout(iref, f)
}

// handleTierDirective routes a corrective directive from the parent
// tier down to the host the last fan-out implicated. A directive with
// no implicated host is dropped — the parent acted on stale aggregates.
func (dm *DomainManager) handleTierDirective(d msg.Directive, tc telemetry.TraceContext) {
	if dm.lastHot == "" {
		return
	}
	dm.DirectivesRouted++
	_ = dm.send(dm.lastHot, msg.Message{From: dm.addr, Trace: tc,
		Body: msg.Directive{From: dm.addr, Action: d.Action, Target: d.Target, Amount: d.Amount}})
}
