package manager

import (
	"fmt"
	"sort"
	"time"

	"softqos/internal/msg"
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
	// Liveness bookkeeping (EnableLiveness): when the episode was opened
	// or last retried, and whether its query has been retried already.
	at      time.Duration
	retried bool
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
	at        time.Duration
	retried   bool
}

// DomainManager locates sources of problems spanning hosts and issues
// corrective directives to host managers.
type DomainManager struct {
	addr string
	send Send

	engine  *rules.Engine
	servers map[string]serverRef // application -> server side
	// queryKeys holds one localization key list per server executable.
	queryKeys map[string][]string
	episodes  map[string]*episode // ref -> pending episode
	nextRef   int

	// Hierarchy state, empty in flat (2-tier) topologies. Hosts register
	// with the domain exactly as coordinators register with the policy
	// agent; the same heartbeat/liveness machinery then governs them.
	hosts     map[string]string // host name -> host manager address
	hostSeen  map[string]time.Duration
	hostOrder []string // registration order, for deterministic sweeps
	// hostTimeout governs host-roster eviction (SetHostTimeout); zero
	// falls back to livenessTimeout.
	hostTimeout time.Duration
	fanouts     map[string]*fanout // ref -> pending downward fan-out
	tier        int                // trace tier depth (0 = flat, 2 = domain under a region)
	lastHot     string             // most recently implicated host manager address

	// uplink, when set, batches this domain's alarm traffic toward the
	// parent tier instead of (or in addition to) diagnosing locally.
	uplink *AlarmCoalescer
	// summarySink, when set, receives inbound host telemetry summaries
	// (SetSummarySink wires a SummaryAggregator's Ingest here).
	summarySink func(msg.TelemetrySummary)
	// policyAgents, when set, receives relayed policy deltas
	// (SetPolicyAgents names the per-domain policy agents the live
	// distribution path terminates at).
	policyAgents []string
	// SeverityFor, when set, grades an alarm for uplink escalation
	// (default severity 1).
	SeverityFor func(msg.Alarm) int

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

	// Liveness tracking (EnableLiveness): episodes whose server report
	// never arrives are retried once, then abandoned with a traced
	// reason instead of pending forever.
	livenessClock   telemetry.Clock
	livenessTimeout time.Duration

	// Telemetry (optional; see SetTelemetry).
	metrics *dmMetrics
	tracer  *telemetry.Tracer
	epCur   *episode // episode being diagnosed (explanation attribution)
	epFacts []int    // ids of the facts asserted for it
	// evlog, when set, records the decisions this manager otherwise makes
	// silently (evictions, retries, timeouts) as structured events. Nil —
	// the default — is free (eventlog methods are nil-safe).
	evlog *eventlog.Logger
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
	hostsEvicted  *telemetry.Counter
	policyRelays  *telemetry.Counter
	firings       *telemetry.Sketch
}

// NewDomainManager creates a domain manager bound to addr, loading the
// default rule set.
func NewDomainManager(addr string, send Send) *DomainManager {
	dm := &DomainManager{
		addr:      addr,
		send:      send,
		engine:    rules.NewEngine(),
		servers:   make(map[string]serverRef),
		queryKeys: make(map[string][]string),
		episodes:  make(map[string]*episode),
	}
	dm.registerCallbacks()
	if err := dm.engine.LoadRulesOrigin("domain-default", DefaultDomainRules); err != nil {
		panic("manager: default domain rules do not parse: " + err.Error())
	}
	return dm
}

// Addr returns the manager's management address.
func (dm *DomainManager) Addr() string { return dm.addr }

// SetTelemetry attaches the domain manager to a metrics registry and
// (optionally) a violation tracer. Localization outcomes and directives
// are attributed to the originating client violation's trace through the
// alarm identity carried by each episode.
func (dm *DomainManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	dm.tracer = tracer
	if tracer != nil {
		dm.engine.OnFiring = dm.explainFiring
	} else {
		dm.engine.OnFiring = nil
	}
	if reg == nil {
		dm.metrics = nil
		return
	}
	dm.metrics = &dmMetrics{
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
		hostsEvicted:  reg.Counter("domain.hosts_evicted"),
		policyRelays:  reg.Counter("domain.policy_deltas_relayed"),
		firings:       reg.Sketch("domain.rule_firings"),
	}
}

// SetEventLog attaches the structured event log this manager records
// its silent decisions on (component "domainmanager"). Nil detaches.
func (dm *DomainManager) SetEventLog(lg *eventlog.Logger) { dm.evlog = lg }

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

// LoadNamedRules replaces the rule set at run time with provenance (see
// HostManager.LoadNamedRules).
func (dm *DomainManager) LoadNamedRules(name, src string) error {
	return dm.engine.LoadRulesOrigin(name, src)
}

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
		if dm.metrics != nil {
			dm.metrics.serverFaults.Inc()
		}
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
		if dm.metrics != nil {
			dm.metrics.memoryFaults.Inc()
		}
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
		if dm.metrics != nil {
			dm.metrics.restarts.Inc()
		}
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
		if dm.metrics != nil {
			dm.metrics.networkFaults.Inc()
		}
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
	ep, ok := dm.episodes[args[i].Sym]
	if !ok {
		return nil, fmt.Errorf("unknown episode %s", args[i].Sym)
	}
	return ep, nil
}

// HandleMessage processes one inbound management message.
func (dm *DomainManager) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case *msg.Alarm:
		dm.handleAlarm(*body, m.Trace)
	case msg.Alarm:
		dm.handleAlarm(body, m.Trace)
	case *msg.Report:
		dm.handleReport(*body)
	case msg.Report:
		dm.handleReport(body)
	case *msg.Register:
		dm.handleHostRegister(*body, m.From)
	case msg.Register:
		dm.handleHostRegister(body, m.From)
	case *msg.Heartbeat:
		dm.handleHostHeartbeat(*body, m.From)
	case msg.Heartbeat:
		dm.handleHostHeartbeat(body, m.From)
	case *msg.Query:
		dm.handleTierQuery(*body, m.Trace)
	case msg.Query:
		dm.handleTierQuery(body, m.Trace)
	case *msg.Directive:
		dm.handleTierDirective(*body, m.Trace)
	case msg.Directive:
		dm.handleTierDirective(body, m.Trace)
	case *msg.TelemetrySummary:
		dm.handleSummary(*body)
	case msg.TelemetrySummary:
		dm.handleSummary(body)
	case *msg.PolicyDelta:
		dm.relayDelta(m)
	case msg.PolicyDelta:
		dm.relayDelta(m)
	case *msg.Ack, msg.Ack:
		// Directive acknowledgements are informational.
	}
}

// SetPolicyAgents names the policy agents this domain relays repository
// policy deltas to — the terminal hop of the hub → region → domain →
// agent distribution path. A domain with none configured drops deltas
// (it is not part of a live-distribution deployment).
func (dm *DomainManager) SetPolicyAgents(addrs ...string) {
	dm.policyAgents = append([]string(nil), addrs...)
}

// relayDelta forwards a policy delta to this domain's policy agents,
// trace context intact.
func (dm *DomainManager) relayDelta(m msg.Message) {
	for _, addr := range dm.policyAgents {
		_ = dm.send(addr, msg.Message{From: dm.addr, Trace: m.Trace, Body: m.Body})
	}
	dm.PolicyDeltasRelayed += uint64(len(dm.policyAgents))
	if dm.metrics != nil && len(dm.policyAgents) > 0 {
		dm.metrics.policyRelays.Add(uint64(len(dm.policyAgents)))
	}
	if len(dm.policyAgents) > 0 {
		dm.evlog.EventCtx(m.Trace, eventlog.Debug, "domainmanager", "policy_relay",
			eventlog.Int("agents", len(dm.policyAgents)))
	}
}

// SetSummarySink routes inbound host telemetry summaries to fn —
// typically a SummaryAggregator's Ingest, which merges them and ships
// one domain-tier summary per window up to the region. Summaries
// arriving with no sink set are dropped (a non-federated domain has
// nothing to do with them).
func (dm *DomainManager) SetSummarySink(fn func(msg.TelemetrySummary)) {
	dm.summarySink = fn
}

func (dm *DomainManager) handleSummary(ts msg.TelemetrySummary) {
	if dm.summarySink != nil {
		dm.summarySink(ts)
	}
}

// handleAlarm opens an episode and interrogates the server-side host
// manager ("Upon receiving an alarm report from the client-side QoS Host
// Manager, ask the corresponding server-side QoS Host Manager for CPU
// load and memory usage").
func (dm *DomainManager) handleAlarm(al msg.Alarm, tc telemetry.TraceContext) {
	dm.Alarms++
	if dm.metrics != nil {
		dm.metrics.alarms.Inc()
	}
	// Hierarchical uplink: the domain's alarm activity coalesces upward
	// regardless of whether local diagnosis succeeds, so the region tier
	// sees aggregate pressure instead of per-host floods.
	if dm.uplink != nil {
		sev := 1
		if dm.SeverityFor != nil {
			sev = dm.SeverityFor(al)
		}
		_ = dm.uplink.AddCtx(al, sev, tc)
	}
	server, ok := dm.servers[al.ID.Application]
	if !ok {
		dm.RuleErrors++
		if dm.metrics != nil {
			dm.metrics.ruleErrors.Inc()
		}
		dm.evlog.EventCtx(tc, eventlog.Warn, "domainmanager", "unknown_application",
			eventlog.Str("application", al.ID.Application),
			eventlog.Str("subject", al.ID.Address()))
		return
	}
	dm.nextRef++
	ref := spanDetail("e", dm.nextRef, false, "")
	ep := &episode{alarm: al, subject: al.ID.Address(), server: server, ctx: tc}
	if dm.livenessClock != nil {
		ep.at = dm.livenessClock()
	}
	dm.episodes[ref] = ep
	_ = dm.send(server.hostMgrAddr, msg.Message{
		From:  dm.addr,
		Trace: tc,
		Body:  dm.episodeQuery(ep, ref),
	})
}

// episodeQuery builds the server-side statistics query for an episode.
func (dm *DomainManager) episodeQuery(ep *episode, ref string) msg.Query {
	return msg.Query{From: dm.addr, Keys: ep.server.queryKeys, Ref: ref}
}

// EnableLiveness arms episode timeouts: a localization whose server
// report does not arrive within timeout re-sends its query once, and is
// abandoned (with the reason traced) if the retry also times out.
// Disabled by default so fault-free simulations are unchanged.
func (dm *DomainManager) EnableLiveness(clock telemetry.Clock, timeout time.Duration) {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	dm.livenessClock = clock
	dm.livenessTimeout = timeout
}

// CheckLiveness sweeps pending episodes: expired ones are retried once
// (the query may have been lost in flight), twice-expired ones are
// closed with an "abandoned" span on the client violation's trace so no
// episode pends forever on a dead host manager. Episode refs are swept
// in sorted order for deterministic simulated runs.
func (dm *DomainManager) CheckLiveness() (retried, abandoned int) {
	if dm.livenessClock == nil || dm.livenessTimeout <= 0 {
		return 0, 0
	}
	now := dm.livenessClock()
	// Hierarchy sweeps (no-ops in flat topologies): pending fan-outs are
	// retried with the scope narrowed to the hosts that have not
	// reported, and silent hosts are evicted.
	fr, fa := dm.checkFanouts(now)
	retried += fr
	abandoned += fa
	dm.checkHosts(now)
	refs := make([]string, 0, len(dm.episodes))
	for ref, ep := range dm.episodes {
		if now-ep.at > dm.livenessTimeout {
			refs = append(refs, ref)
		}
	}
	sort.Strings(refs)
	for _, ref := range refs {
		ep := dm.episodes[ref]
		if !ep.retried {
			ep.retried = true
			ep.at = now
			dm.QueryRetries++
			if dm.metrics != nil {
				dm.metrics.queryRetries.Inc()
			}
			dm.traceEvent(ep, telemetry.StageEscalate,
				"re-query "+ep.server.hostMgrAddr+" (report timed out)")
			dm.evlog.EventCtx(ep.ctx, eventlog.Info, "domainmanager", "episode_retry",
				eventlog.Str("ref", ref), eventlog.Str("server", ep.server.hostMgrAddr))
			_ = dm.send(ep.server.hostMgrAddr, msg.Message{
				From:  dm.addr,
				Trace: ep.ctx,
				Body:  dm.episodeQuery(ep, ref),
			})
			retried++
			continue
		}
		dm.EpisodeTimeouts++
		if dm.metrics != nil {
			dm.metrics.timeouts.Inc()
		}
		dm.traceEvent(ep, telemetry.StageAbandoned,
			"localization abandoned: no report from "+ep.server.hostMgrAddr+" after retry")
		dm.evlog.EventCtx(ep.ctx, eventlog.Warn, "domainmanager", "episode_timeout",
			eventlog.Str("ref", ref), eventlog.Str("server", ep.server.hostMgrAddr))
		delete(dm.episodes, ref)
		abandoned++
	}
	return retried, abandoned
}

// PendingEpisodes returns how many localizations await a server report.
func (dm *DomainManager) PendingEpisodes() int { return len(dm.episodes) }

// handleReport closes the episode: asserts the server statistics as
// facts, forward-chains the diagnosis, and cleans up.
func (dm *DomainManager) handleReport(r msg.Report) {
	if f, ok := dm.fanouts[r.Ref]; ok {
		dm.handleFanoutReport(r.Ref, f, r)
		return
	}
	ep, ok := dm.episodes[r.Ref]
	if !ok {
		return
	}
	dm.hostContact(r.Host)
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
	if dm.metrics != nil {
		dm.metrics.firings.Observe(float64(fired))
	}
	if err != nil {
		dm.RuleErrors++
		if dm.metrics != nil {
			dm.metrics.ruleErrors.Inc()
		}
	}
	for _, id := range ids {
		e.Retract(id)
	}
	dm.epFacts = ids
	delete(dm.episodes, r.Ref)
}
