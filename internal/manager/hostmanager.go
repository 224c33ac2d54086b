package manager

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"softqos/internal/msg"
	"softqos/internal/rules"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Send transmits a management message (bus or TCP transport).
type Send = msg.SendFunc

// DefaultHostRules is the QoS Host Manager rule set described in Section
// 5.3 of the paper, written in the CLIPS-like DSL:
//
//   - a violation whose communication buffer is long means the process
//     cannot drain frames fast enough → local CPU starvation → raise the
//     process's CPU priority, by an amount that grows with how far the
//     metric is from its target ("Additional rules are used to determine
//     how much to increase CPU priority based on how close the policy is
//     to being satisfied");
//   - a violation whose buffer is short means frames are not arriving →
//     the fault is not local → escalate to the QoS Domain Manager;
//   - an overshoot report (metric above expectations) → reclaim resources
//     gently (the strategy of Section 2: reduce the allocation when the
//     expectation is exceeded);
//   - a violation with no buffer reading at all → apply a modest default
//     boost (no evidence for a remote cause).
const DefaultHostRules = `
(deffacts host-thresholds
  (buffer-threshold 8))

(defrule local-cpu-starvation
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  (reading ?p frame_rate ?fps)
  =>
  (call boost-cpu ?p (max 2 (min 15 (- 25 ?fps)))))

(defrule escalate-remote
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (< ?len ?t))
  =>
  (call notify-domain ?p ?policy))

(defrule reclaim-on-overshoot
  (overshoot ?p ?policy)
  =>
  (call reclaim-cpu ?p 1))

(defrule local-default-boost
  (violation ?p ?policy)
  (not (reading ?p buffer_size ?len))
  =>
  (call boost-cpu ?p 5))
`

// defaultHostProgram is DefaultHostRules compiled once per process: every
// host manager loads this one read-only program.
var defaultHostProgram = mustCompile("host-default", DefaultHostRules)

// mustCompile compiles a built-in rule set, which must compile.
func mustCompile(origin, src string) *rules.Program {
	p, err := rules.Compile(origin, src)
	if err != nil {
		panic("manager: " + origin + " rules do not parse: " + err.Error())
	}
	return p
}

// OverloadHostRules extends the default rule set with the paper's
// future-work overload handling (§10 iii): when a violation persists even
// though the CPU manager has already pushed the process's priority to a
// high level — there simply are not enough cycles — the manager asks the
// application itself to adapt, degrading the stream through the
// frame_skip actuator instead of thrashing priorities.
const OverloadHostRules = `
(deffacts host-thresholds
  (buffer-threshold 8)
  (boost-saturation 40))

(defrule adapt-on-overload
  (declare (salience 20))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  (proc-boost ?p ?b)
  (boost-saturation ?sat)
  (test (>= ?b ?sat))
  =>
  (call request-adaptation ?p frame_skip 3))

(defrule local-cpu-starvation
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  (proc-boost ?p ?b)
  (boost-saturation ?sat)
  (test (< ?b ?sat))
  (reading ?p frame_rate ?fps)
  =>
  (call boost-cpu ?p (max 2 (min 15 (- 25 ?fps)))))

(defrule escalate-remote
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (< ?len ?t))
  =>
  (call notify-domain ?p ?policy))

(defrule reclaim-on-overshoot
  (overshoot ?p ?policy)
  =>
  (call reclaim-cpu ?p 1))
`

// MemoryAwareHostRules extends diagnosis with the memory resource: a
// process starved while the host's CPU is idle (low load average, full
// buffer) is suffering memory pressure, not CPU contention — the memory
// manager restores its resident set. CPU contention keeps the usual
// priority treatment.
const MemoryAwareHostRules = `
(deffacts host-thresholds
  (buffer-threshold 8)
  (idle-load 1.5))

(defrule memory-starvation
  (declare (salience 20))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  (host-load ?l)
  (idle-load ?il)
  (test (< ?l ?il))
  =>
  (call restore-memory ?p))

(defrule local-cpu-starvation
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (>= ?len ?t))
  (host-load ?l)
  (idle-load ?il)
  (test (>= ?l ?il))
  (reading ?p frame_rate ?fps)
  =>
  (call boost-cpu ?p (max 2 (min 15 (- 25 ?fps)))))

(defrule escalate-remote
  (declare (salience 10))
  (violation ?p ?policy)
  (reading ?p buffer_size ?len)
  (buffer-threshold ?t)
  (test (< ?len ?t))
  =>
  (call notify-domain ?p ?policy))

(defrule reclaim-on-overshoot
  (overshoot ?p ?policy)
  =>
  (call reclaim-cpu ?p 1))
`

// DifferentiatedHostRules is an administrative rule set realising the
// constraint of Sections 2 and 3.1: when demand exceeds capacity, some
// applications have priority over others. Violations from processes in
// the "physician" role are corrected with the full proportional boost;
// "student" processes receive only small, capped boosts, so under
// contention the physician's stream keeps its expectation while the
// student's degrades.
const DifferentiatedHostRules = `
(deffacts host-thresholds
  (buffer-threshold 8))

(defrule priority-role-starved
  (declare (salience 20))
  (violation ?p ?policy)
  (proc-role ?p physician)
  (reading ?p frame_rate ?fps)
  =>
  (call boost-cpu ?p (max 2 (min 15 (- 25 ?fps)))))

(defrule best-effort-role-starved
  (declare (salience 10))
  (violation ?p ?policy)
  (proc-role ?p student)
  =>
  (call boost-cpu ?p 2)
  (call cap-boost ?p 5))

(defrule reclaim-on-overshoot
  (overshoot ?p ?policy)
  =>
  (call reclaim-cpu ?p 1))
`

// managedProc is one process under the host manager's control.
type managedProc struct {
	proc runtime.ProcHandle
	id   msg.Identity
	psym rules.Value // its fact symbol, "p<pid>"
	addr string      // id.Address(), the trace subject
}

// HostManager is the per-host QoS manager: inference engine, rule base,
// fact repository and resource managers (Figure 1). It touches its
// environment only through the runtime seams (runtime.HostControl,
// runtime.ProcHandle, a Send function and — for pacing — whatever clock
// the telemetry registry carries), so the same manager runs under the
// virtual-clock simulator and in live wall-clock deployments.
type HostManager struct {
	node
	diagnoseDetail string // the diagnose and escalate spans' details, rendered once
	escalateDetail string
	host           runtime.HostControl

	engine *rules.Engine
	cpu    *CPUManager
	mem    *MemoryManager

	domainAddr string

	// procs is the roster of managed processes by PID: any message from a
	// process counts as contact, and CheckLiveness evicts the silent ones.
	procs      roster[int, managedProc]
	procsByExe map[string]*managedProc

	// OnRestart, if set, re-spawns a failed executable (the paper's
	// "restarting a failed process" adaptation) and returns the new
	// process plus its identity for tracking; nil means restart is not
	// supported on this host.
	OnRestart func(executable string) (runtime.ProcHandle, msg.Identity, bool)
	// OnUnknownProc, if set, resolves a violation report from a process
	// the manager is not yet tracking (live mode learns processes from
	// their registrations rather than at spawn). Returning ok tracks the
	// handle and lets the episode proceed; nil (the simulator's setting)
	// keeps the strict behavior: count a rule error and drop the report.
	OnUnknownProc func(id msg.Identity) (runtime.ProcHandle, bool)
	// Restarts counts restart directives executed.
	Restarts int

	// Statistics for experiment reports.
	ViolationsSeen uint64
	OvershootsSeen uint64
	Escalations    uint64
	Adaptations    uint64
	RuleErrors     uint64
	HeartbeatsSeen uint64
	AgentsEvicted  uint64

	// Telemetry (optional; see SetTelemetry). Nil handles are no-ops.
	metrics hmMetrics
	// Episode context for trace attribution: rule callbacks fire
	// synchronously inside handleViolation's engine.Run, so the subject
	// and policy of the report being diagnosed attribute their actions.
	epSubject string
	epPolicy  string
	epCtx     telemetry.TraceContext
	epFacts   []int // ids of the facts asserted for the episode in progress
}

// hmMetrics holds the host manager's pre-resolved metric handles.
type hmMetrics struct {
	violations  *telemetry.Counter
	overshoots  *telemetry.Counter
	escalations *telemetry.Counter
	adaptations *telemetry.Counter
	directives  *telemetry.Counter
	ruleErrors  *telemetry.Counter
	restarts    *telemetry.Counter
	firings     *telemetry.Sketch // rule firings per diagnosis episode
}

// NewHostManager creates a host manager bound to addr on host, loading
// the default rule set. Pass domainAddr="" for hosts without a domain
// manager (escalations are then dropped and counted). live arms the
// eviction of processes that stop reporting; its zero value leaves it off.
func NewHostManager(addr string, host runtime.HostControl, send Send, domainAddr string, live Liveness) *HostManager {
	hm := &HostManager{
		node:           node{addr: addr, send: send, component: "hostmanager", live: live},
		diagnoseDetail: "inference episode on " + addr,
		escalateDetail: "alarm -> " + domainAddr,
		host:           host,
		domainAddr:     domainAddr,
		engine:         rules.NewEngine(),
		cpu:            NewCPUManager(host),
		mem:            NewMemoryManager(host),
		procsByExe:     make(map[string]*managedProc),
	}
	hm.procs = roster[int, managedProc]{kind: "agent", timeout: live.Timeout, evicted: &hm.AgentsEvicted,
		describe: func(_ int, mp *managedProc, _ time.Duration) []eventlog.Field {
			return []eventlog.Field{eventlog.Str("subject", mp.addr), eventlog.Str("executable", mp.id.Executable)}
		},
		onEvict: hm.evict}
	hm.registerCallbacks()
	hm.engine.Load(defaultHostProgram)
	return hm
}

// SetTelemetry attaches the host manager to a metrics registry and
// (optionally) a violation tracer. Metric names are scoped by host, e.g.
// "manager.client-host.violations".
func (hm *HostManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	hm.tracer = tracer
	hm.engine.OnFiring = nil
	if tracer != nil {
		hm.engine.OnFiring = hm.explainFiring
	}
	hm.metrics, hm.procs.metric = hmMetrics{}, nil
	if reg == nil {
		return
	}
	prefix := "manager." + hm.host.Name() + "."
	hm.metrics = hmMetrics{
		violations:  reg.Counter(prefix + "violations"),
		overshoots:  reg.Counter(prefix + "overshoots"),
		escalations: reg.Counter(prefix + "escalations"),
		adaptations: reg.Counter(prefix + "adaptations"),
		directives:  reg.Counter(prefix + "directives"),
		ruleErrors:  reg.Counter(prefix + "rule_errors"),
		restarts:    reg.Counter(prefix + "restarts"),
		firings:     reg.Sketch(prefix + "rule_firings"),
	}
	hm.procs.metric = reg.Counter(prefix + "agents_evicted")
}

// SetEventLog attaches the structured event log this manager records
// its silent decisions on (component "hostmanager"). Nil detaches.
func (hm *HostManager) SetEventLog(lg *eventlog.Logger) { hm.evlog = lg }

// traceEvent records a span emitted by src on the trace of the violation
// currently being diagnosed, parented under the episode's diagnosis span;
// a no-op outside an episode or without a tracer. It returns the span's
// context for propagation on outgoing messages.
func (hm *HostManager) traceEvent(src, stage, detail string) telemetry.TraceContext {
	if hm.tracer != nil && hm.epSubject != "" {
		return hm.tracer.EventCtx(hm.epCtx, hm.epSubject, hm.epPolicy, src, stage, detail)
	}
	return telemetry.TraceContext{}
}

// explainFiring is the inference engine's OnFiring hook: each rule
// activation executed during a diagnosis episode becomes an explanation
// record on the violation's trace — which facts matched which rule and
// what was asserted, retracted and called as a result.
func (hm *HostManager) explainFiring(f rules.Firing) {
	if hm.tracer == nil || hm.epSubject == "" {
		return
	}
	hm.tracer.Explain(hm.epCtx, hm.epSubject, hm.epPolicy, explanation(hm.addr, f))
}

// explanation is the trace-attached form of one rule firing on engine.
func explanation(engine string, f rules.Firing) telemetry.Explanation {
	return telemetry.Explanation{Engine: engine, Rule: f.Rule, RuleSet: f.Origin, Salience: f.Salience,
		Bindings: f.Bindings, Matched: f.Matched, Asserted: f.Asserted, Retracted: f.Retracted, Called: f.Called}
}

// CPU returns the CPU resource manager.
func (hm *HostManager) CPU() *CPUManager { return hm.cpu }

// Memory returns the memory resource manager.
func (hm *HostManager) Memory() *MemoryManager { return hm.mem }

// Engine exposes the inference engine (tests and rule administration).
func (hm *HostManager) Engine() *rules.Engine { return hm.engine }

// LoadRules replaces the rule set at run time (dynamic rule
// distribution).
func (hm *HostManager) LoadRules(src string) error { return hm.engine.LoadRules(src) }

// Track registers a process the manager may act upon. The prototype
// learned processes from their registration; scenarios call this at
// spawn. The process's role is asserted as a persistent fact so
// administrative rules can differentiate allocations by user role.
func (hm *HostManager) Track(p runtime.ProcHandle, id msg.Identity) {
	mp, _ := hm.procs.adopt(id.PID, hm.now())
	*mp = managedProc{proc: p, id: id, psym: rules.Sym(pidSym(id.PID)), addr: id.Address()}
	hm.procsByExe[id.Executable] = mp
	if id.UserRole != "" {
		hm.engine.Assert(rules.Sym("proc-role"), mp.psym, rules.Sym(id.UserRole))
	}
	// A (re)tracked process is alive again: clear any down marker a
	// previous eviction asserted.
	hm.engine.RetractMatching(rules.Sym("component-down"), mp.psym, rules.Sym("?"))
}

// readopt tracks a process the manager does not know through
// OnUnknownProc — this manager restarted and lost its tracking tables, or
// evicted a process that was merely partitioned — and returns it; nil
// when it cannot.
func (hm *HostManager) readopt(id msg.Identity) *managedProc {
	if hm.OnUnknownProc == nil {
		return nil
	}
	p, ok := hm.OnUnknownProc(id)
	if !ok {
		return nil
	}
	hm.Track(p, id)
	return hm.procs.get(id.PID)
}

// CheckLiveness evicts every managed process silent for longer than the
// liveness timeout and returns how many it evicted.
func (hm *HostManager) CheckLiveness() int {
	if !hm.sweeping() {
		return 0
	}
	return hm.procs.sweep(&hm.node, hm.now())
}

// evict finishes a process's eviction: its tracking entries are dropped,
// its persistent facts retracted, a component-down fact is asserted so
// the rule base can reason about the dead component, and all of its open
// violation episodes are abandoned with the reason traced.
func (hm *HostManager) evict(_ int, mp *managedProc) {
	if hm.procsByExe[mp.id.Executable] == mp {
		delete(hm.procsByExe, mp.id.Executable)
	}
	hm.engine.RetractMatching(rules.Sym("proc-role"), mp.psym, rules.Sym("?"))
	hm.engine.Assert(rules.Sym("component-down"), mp.psym, rules.Sym(mp.id.Executable))
	if hm.tracer != nil {
		hm.tracer.AbandonSubject(mp.addr, "hostmanager",
			"component_down: no contact from "+mp.id.Executable+" within liveness timeout")
	}
}

// Tracked returns the process registered for a PID, or nil.
func (hm *HostManager) Tracked(pid int) runtime.ProcHandle {
	if mp := hm.procs.get(pid); mp != nil {
		return mp.proc
	}
	return nil
}

func (hm *HostManager) registerCallbacks() {
	hm.engine.RegisterFunc("boost-cpu", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 2 || args[1].Kind != rules.NumberKind {
			return fmt.Errorf("boost-cpu needs a numeric amount")
		}
		hm.cpu.Boost(mp.proc, int(args[1].Num))
		hm.metrics.adaptations.Inc()
		hm.traceEvent("cpu-manager", telemetry.StageAdapt, spanDetail("boost-cpu ", int(args[1].Num), true, " -> boost "+strconv.Itoa(mp.proc.Boost())))
		return nil
	})
	hm.engine.RegisterFunc("reclaim-cpu", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 2 || args[1].Kind != rules.NumberKind {
			return fmt.Errorf("reclaim-cpu needs a numeric amount")
		}
		hm.cpu.Boost(mp.proc, -int(args[1].Num))
		hm.metrics.adaptations.Inc()
		hm.traceEvent("cpu-manager", telemetry.StageAdapt, spanDetail("reclaim-cpu ", int(args[1].Num), false, ""))
		return nil
	})
	hm.engine.RegisterFunc("grant-rt", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		prio := 10
		if len(args) >= 2 && args[1].Kind == rules.NumberKind {
			prio = int(args[1].Num)
		}
		hm.cpu.GrantRealtime(mp.proc, prio)
		hm.metrics.adaptations.Inc()
		hm.traceEvent("cpu-manager", telemetry.StageAdapt, spanDetail("grant-rt prio ", prio, false, ""))
		return nil
	})
	hm.engine.RegisterFunc("adjust-memory", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 2 || args[1].Kind != rules.NumberKind {
			return fmt.Errorf("adjust-memory needs a numeric page delta")
		}
		hm.mem.Adjust(mp.proc, int(args[1].Num))
		hm.metrics.adaptations.Inc()
		hm.traceEvent("memory-manager", telemetry.StageAdapt, spanDetail("adjust-memory ", int(args[1].Num), true, " pages"))
		return nil
	})
	hm.engine.RegisterFunc("cap-boost", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 2 || args[1].Kind != rules.NumberKind {
			return fmt.Errorf("cap-boost needs a numeric cap")
		}
		if cap := int(args[1].Num); mp.proc.Boost() > cap {
			hm.cpu.Boost(mp.proc, cap-mp.proc.Boost())
			hm.metrics.adaptations.Inc()
			hm.traceEvent("cpu-manager", telemetry.StageAdapt, spanDetail("cap-boost at ", cap, false, ""))
		}
		return nil
	})
	hm.engine.RegisterFunc("restore-memory", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		hm.mem.Ensure(mp.proc, mp.proc.WorkingSet())
		hm.metrics.adaptations.Inc()
		hm.traceEvent("memory-manager", telemetry.StageAdapt, spanDetail("restore-memory to ", mp.proc.WorkingSet(), false, " pages"))
		return nil
	})
	hm.engine.RegisterFunc("request-adaptation", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 3 || args[1].Kind != rules.SymbolKind || args[2].Kind != rules.NumberKind {
			return fmt.Errorf("request-adaptation needs (process actuator amount)")
		}
		hm.Adaptations++
		hm.metrics.adaptations.Inc()
		ctx := hm.traceEvent("hostmanager", telemetry.StageAdapt, fmt.Sprintf("request-adaptation %s %g", args[1].Sym, args[2].Num))
		dm := msg.Message{
			From: hm.addr,
			Body: msg.Directive{From: hm.addr, Action: "actuate",
				Target: args[1].Sym, Amount: args[2].Num},
		}
		if hm.epCtx.Valid() {
			dm.Trace = ctx
		}
		return hm.send(mp.addr+"/qosl_coordinator", dm)
	})
	hm.engine.RegisterFunc("notify-domain", func(args []rules.Value) error {
		mp, err := hm.procArg(args, 0)
		if err != nil {
			return err
		}
		policy := ""
		if len(args) >= 2 {
			policy = args[1].Sym
		}
		hm.Escalations++
		hm.metrics.escalations.Inc()
		if hm.domainAddr == "" {
			hm.traceEvent("hostmanager", telemetry.StageEscalate, "dropped (no domain manager)")
			return nil
		}
		ctx := hm.traceEvent("hostmanager", telemetry.StageEscalate, hm.escalateDetail)
		readings := hm.currentReadings(mp.psym)
		am := msg.Message{
			From: hm.addr,
			Body: msg.Alarm{ID: mp.id, Policy: policy, Readings: readings, Suspect: "remote"},
		}
		if hm.epCtx.Valid() {
			am.Trace = ctx
		}
		return hm.send(hm.domainAddr, am)
	})
}

// procArg resolves the pid symbol in a rule callback argument.
func (hm *HostManager) procArg(args []rules.Value, i int) (*managedProc, error) {
	if len(args) <= i || args[i].Kind != rules.SymbolKind {
		return nil, fmt.Errorf("argument %d: expected process symbol", i)
	}
	pid, err := strconv.Atoi(strings.TrimPrefix(args[i].Sym, "p"))
	if err != nil {
		return nil, fmt.Errorf("argument %d: bad process symbol %q", i, args[i].Sym)
	}
	mp := hm.procs.get(pid)
	if mp == nil {
		return nil, fmt.Errorf("unknown process %s", args[i].Sym)
	}
	return mp, nil
}

// currentReadings extracts the episode's reading facts for escalation.
func (hm *HostManager) currentReadings(psym rules.Value) map[string]float64 {
	out := make(map[string]float64)
	pattern := [...]rules.Value{rules.Sym("reading"), psym, rules.Sym("?a"), rules.Sym("?v")}
	hm.engine.EachMatching(pattern[:], func(f *rules.Fact) {
		if v := f.At(3); v.Kind == rules.NumberKind {
			out[f.At(2).Sym] = v.Num
		}
	})
	return out
}

// HandleMessage processes one inbound management message.
func (hm *HostManager) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case msg.Violation:
		hm.handleViolation(body, m.Trace)
	case msg.Query:
		hm.handleQuery(m.From, body, m.Trace)
	case msg.Directive:
		hm.handleDirective(m.From, body)
	case msg.Heartbeat:
		hm.HeartbeatsSeen++
		if hm.procs.contact(body.ID.PID, hm.now()) == nil && hm.readopt(body.ID) != nil {
			hm.evlog.Event(eventlog.Info, "hostmanager", "proc_readopted",
				eventlog.Str("subject", body.ID.Address()))
		}
	}
}

// handleViolation is one diagnosis episode: assert the report as facts,
// forward-chain, then retract the episode facts.
func (hm *HostManager) handleViolation(v msg.Violation, tc telemetry.TraceContext) {
	mp := hm.procs.contact(v.ID.PID, hm.now())
	if mp == nil {
		mp = hm.readopt(v.ID)
	}
	if mp == nil {
		// A report for an untracked process cannot be acted upon.
		hm.RuleErrors++
		hm.metrics.ruleErrors.Inc()
		hm.evlog.EventCtx(tc, eventlog.Warn, "hostmanager", "untracked_violation",
			eventlog.Str("subject", v.ID.Address()))
		return
	}
	e, relation := hm.engine, "violation"
	if v.Overshoot {
		relation = "overshoot"
		hm.OvershootsSeen++
		hm.metrics.overshoots.Inc()
	} else {
		hm.ViolationsSeen++
		hm.metrics.violations.Inc()
		// Episode context: rule callbacks fired by Run attribute their
		// adaptations and escalations to this violation's trace, parented
		// under the diagnosis span (itself a child of the notify span the
		// report carried in its trace context).
		hm.epSubject, hm.epPolicy, hm.epCtx = mp.addr, v.Policy, tc
		if v.ID != mp.id {
			hm.epSubject = v.ID.Address()
		}
		if hm.tracer != nil {
			hm.epCtx = hm.tracer.EventCtx(tc, hm.epSubject, hm.epPolicy,
				"hostmanager", telemetry.StageDiagnose, hm.diagnoseDetail)
		}
	}
	// The episode's facts, in a fixed order (readings by attribute name):
	// fact ids decide recency, and recency decides which of two rules of
	// equal salience fires first.
	ids := append(hm.epFacts[:0], e.Assert(rules.Sym(relation), mp.psym, rules.Sym(orUnknown(v.Policy))))
	var buf [8]string
	for _, attr := range sortedKeys(v.Readings, buf[:0]) {
		ids = append(ids, e.Assert(rules.Sym("reading"), mp.psym, rules.Sym(attr), rules.Num(v.Readings[attr])))
	}
	ids = append(ids, e.Assert(rules.Sym("host-load"), rules.Num(hm.host.LoadAvg())),
		e.Assert(rules.Sym("proc-boost"), mp.psym, rules.Num(float64(mp.proc.Boost()))))
	fired, err := e.Run(100)
	hm.metrics.firings.Observe(float64(fired))
	if err != nil {
		hm.RuleErrors++
		hm.metrics.ruleErrors.Inc()
	}
	hm.epSubject, hm.epPolicy, hm.epCtx = "", "", telemetry.TraceContext{}
	// Clear the episode — by id what was asserted above, by pattern what
	// the rules concluded; persistent facts (deffacts thresholds) remain.
	for _, id := range ids {
		e.Retract(id)
	}
	e.RetractMatching(rules.Sym("diagnosis"), mp.psym, rules.Sym("?"))
	hm.epFacts = ids
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// handleQuery answers statistic queries from the domain manager.
func (hm *HostManager) handleQuery(replyTo string, q msg.Query, tc telemetry.TraceContext) {
	values := make(map[string]float64, len(q.Keys))
	for _, k := range q.Keys {
		switch {
		case k == "cpu_load":
			values[k] = hm.host.LoadAvg()
		case k == "mem_usage":
			phys := float64(hm.host.PhysPages())
			if phys > 0 {
				values[k] = 1 - float64(hm.host.FreePages())/phys
			}
		case k == "run_queue":
			values[k] = float64(hm.host.RunQueueLen())
		case strings.HasPrefix(k, "proc_cpu:"):
			exe := strings.TrimPrefix(k, "proc_cpu:")
			// A dead process reports nothing: the missing key is how the
			// domain manager detects process failure.
			if mp, ok := hm.procsByExe[exe]; ok && mp.proc.Alive() {
				values[k] = mp.proc.CPUTime().Seconds()
			}
		case strings.HasPrefix(k, "proc_boost:"):
			exe := strings.TrimPrefix(k, "proc_boost:")
			if mp, ok := hm.procsByExe[exe]; ok {
				values[k] = float64(mp.proc.Boost())
			}
		}
	}
	_ = hm.send(replyTo, msg.Message{
		From:  hm.addr,
		Trace: tc,
		Body:  msg.Report{Host: hm.host.Name(), Values: values, Ref: q.Ref},
	})
}

// handleDirective executes a corrective action pushed by the domain
// manager.
func (hm *HostManager) handleDirective(replyTo string, d msg.Directive) {
	hm.metrics.directives.Inc()
	var err error
	mp, ok := hm.procsByExe[d.Target]
	if !ok {
		err = fmt.Errorf("manager: no tracked process for executable %q", d.Target)
	} else {
		switch d.Action {
		case "boost_cpu":
			hm.cpu.Boost(mp.proc, int(d.Amount))
		case "reclaim_cpu":
			hm.cpu.Boost(mp.proc, -int(d.Amount))
		case "grant_rt":
			hm.cpu.GrantRealtime(mp.proc, int(d.Amount))
		case "adjust_memory":
			hm.mem.Adjust(mp.proc, int(d.Amount))
		case "restart_proc":
			if hm.OnRestart == nil {
				err = fmt.Errorf("manager: restart not supported on %s", hm.host.Name())
				break
			}
			if mp.proc.Alive() {
				err = fmt.Errorf("manager: %s is still running", d.Target)
				break
			}
			np, nid, ok := hm.OnRestart(d.Target)
			if !ok {
				err = fmt.Errorf("manager: restart of %s failed", d.Target)
				break
			}
			hm.Track(np, nid)
			hm.Restarts++
			hm.metrics.restarts.Inc()
		default:
			err = fmt.Errorf("manager: unknown directive %q", d.Action)
		}
	}
	ack := msg.Ack{Ref: d.Action + ":" + d.Target, OK: err == nil}
	if err != nil {
		ack.Err = err.Error()
	}
	_ = hm.send(replyTo, msg.Message{From: hm.addr, Body: ack})
}

// MemUsage reports the host's memory utilisation fraction.
func (hm *HostManager) MemUsage() float64 {
	phys := float64(hm.host.PhysPages())
	if phys == 0 {
		return 0
	}
	return 1 - float64(hm.host.FreePages())/phys
}

// ReactionBudget is documentation of the control loop's pacing: the
// coordinator paces violation reports (default 500 ms) and each report
// triggers at most one adjustment per rule, so the system applies at most
// ~2 corrective steps per second per process.
const ReactionBudget = 500 * time.Millisecond
