package softqos

import (
	"sync"
	"sync/atomic"

	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
)

// LiveHostManager runs the QoS Host Manager — the *same*
// internal/manager.HostManager the simulator uses, with its inference
// engine, rule sets, CPU and memory resource managers, escalation and
// telemetry — over TCP under the wall clock. Processes are tracked as
// runtime.LiveProc handles, learned automatically from their first
// violation report; every resource-manager action the rules take is
// recorded as a runtime.Adjustment and surfaced through SetOnAdjust for
// the embedding daemon to apply to the real OS process (setpriority,
// sched_setscheduler, mlock and friends).
type LiveHostManager struct {
	nt   *msg.NetTransport
	hm   *manager.HostManager
	host *runtime.LiveHost
	kit  Kit // what hm records on; touched only on nt's dispatcher

	violations atomic.Uint64
	overshoots atomic.Uint64
	adjusted   atomic.Uint64 // every adjustment ever recorded

	mu sync.Mutex
	// adjustments is a ring of the latest adjustmentHistory adjustments,
	// written under mu: the oldest sits at adjusted % adjustmentHistory.
	adjustments []runtime.Adjustment
	onAdjust    func(runtime.Adjustment)
}

// adjustmentHistory bounds the adjustment record: a manager that runs
// for hours adjusts millions of times.
const adjustmentHistory = 1024

// NewLiveHostManager starts a live host manager on addr with the given
// rule source ("" loads manager.DefaultHostRules; pass manager-package
// rule constants or custom text). Escalation is disabled; use
// NewLiveHostManagerDomain to wire a domain manager.
func NewLiveHostManager(addr, rulesSrc string) (*LiveHostManager, error) {
	return NewLiveHostManagerDomain(addr, rulesSrc, "")
}

// NewLiveHostManagerDomain starts a live host manager whose escalations
// (the notify-domain rule action) travel to the LiveDomainManager
// listening on TCP address domainTCP ("" drops escalations, counted).
func NewLiveHostManagerDomain(addr, rulesSrc, domainTCP string) (*LiveHostManager, error) {
	nt, err := msg.NewNetTransport("live", addr)
	if err != nil {
		return nil, err
	}
	domainAddr := ""
	if domainTCP != "" {
		domainAddr = LiveDomainManagerAddr
		nt.Route(LiveDomainManagerAddr, domainTCP)
	}
	lhost := runtime.NewLiveHost("live")
	lm := &LiveHostManager{nt: nt, host: lhost}
	hm := manager.NewHostManager(LiveHostManagerAddr, lhost, nt.Send, domainAddr, manager.Liveness{}, Kit{})
	if rulesSrc != "" && rulesSrc != manager.DefaultHostRules {
		if err := hm.LoadRules(rulesSrc); err != nil {
			_ = nt.Close()
			return nil, err
		}
	}
	// Live processes announce themselves through their reports rather
	// than at spawn: track them on first contact.
	hm.OnUnknownProc = func(id msg.Identity) (runtime.ProcHandle, bool) {
		return lhost.StartProc(id.PID), true
	}
	lhost.SetOnAdjust(func(a runtime.Adjustment) {
		lm.mu.Lock()
		if len(lm.adjustments) < adjustmentHistory {
			lm.adjustments = append(lm.adjustments, a)
		} else {
			lm.adjustments[lm.adjusted.Load()%adjustmentHistory] = a
		}
		lm.adjusted.Add(1)
		hook := lm.onAdjust
		lm.mu.Unlock()
		if hook != nil {
			hook(a)
		}
	})
	lm.hm = hm
	nt.Bind(LiveHostManagerAddr, "live", func(m msg.Message) {
		if v, ok := m.Body.(msg.Violation); ok {
			if v.Overshoot {
				lm.overshoots.Add(1)
			} else {
				lm.violations.Add(1)
			}
		}
		hm.HandleMessage(m)
	})
	return lm, nil
}

// Addr returns the listening address.
func (lm *LiveHostManager) Addr() string { return lm.nt.Addr() }

// Close stops the manager.
func (lm *LiveHostManager) Close() error { return lm.nt.Close() }

// Host returns the live host whose processes the manager controls; its
// LiveProc handles are safe to inspect concurrently.
func (lm *LiveHostManager) Host() *runtime.LiveHost { return lm.host }

// Violations returns the number of genuine violation episodes received.
func (lm *LiveHostManager) Violations() uint64 { return lm.violations.Load() }

// Overshoots returns the number of overshoot reports received.
func (lm *LiveHostManager) Overshoots() uint64 { return lm.overshoots.Load() }

// AdjustmentCount returns the number of resource-manager actions taken
// so far.
func (lm *LiveHostManager) AdjustmentCount() uint64 { return lm.adjusted.Load() }

// Adjustments returns a copy of the latest resource-manager actions, at
// most 1 024, oldest first. AdjustmentCount counts all of them.
func (lm *LiveHostManager) Adjustments() []runtime.Adjustment {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	oldest := int(lm.adjusted.Load() % adjustmentHistory) // len(adjustments) until full
	out := make([]runtime.Adjustment, 0, len(lm.adjustments))
	return append(append(out, lm.adjustments[oldest:]...), lm.adjustments[:oldest]...)
}

// SetOnAdjust installs the embedding daemon's hook: it receives every
// resource-manager action (CPU boost, class change, resident-set
// adjustment) the rules apply, to mirror onto the real OS process.
func (lm *LiveHostManager) SetOnAdjust(fn func(runtime.Adjustment)) {
	lm.mu.Lock()
	lm.onAdjust = fn
	lm.mu.Unlock()
}

// Sync runs fn on the transport dispatcher, serialized with message
// handling — the way to touch Manager() state safely.
func (lm *LiveHostManager) Sync(fn func()) { lm.nt.Sync(fn) }

// Manager exposes the underlying host manager. Only touch it inside
// Sync: it runs single-threaded on the transport dispatcher.
func (lm *LiveHostManager) Manager() *manager.HostManager { return lm.hm }

// SetTelemetry attaches transport ("msg.net.*") and manager
// ("manager.live.*") metrics plus an optional violation tracer.
//
// Frozen-harness shim; goes with ROADMAP item 13.
func (lm *LiveHostManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	lm.nt.SetMetrics(reg)
	lm.nt.Sync(func() { lm.kit.Metrics, lm.kit.Tracer = reg, tracer; lm.hm.SetKit(lm.kit) })
}

// SetEventLog attaches the structured event log the manager's
// decisions (eviction, re-adoption, untracked violations) and the
// transport's diagnostics are recorded on. Nil detaches.
//
// Frozen-harness shim; goes with ROADMAP item 13.
func (lm *LiveHostManager) SetEventLog(lg *EventLogger) {
	lm.nt.SetEventLog(lg)
	lm.nt.Sync(func() { lm.kit.Log = lg; lm.hm.SetKit(lm.kit) })
}

// LiveDomainManager runs the QoS Domain Manager — again the exact
// internal/manager.DomainManager of the simulator — on a TCP node, for
// cross-host fault localization between live host managers.
type LiveDomainManager struct {
	nt  *msg.NetTransport
	dm  *manager.DomainManager
	kit Kit // what dm records on; touched only on nt's dispatcher
}

// NewLiveDomainManager starts a live domain manager on addr.
func NewLiveDomainManager(addr string) (*LiveDomainManager, error) {
	nt, err := msg.NewNetTransport("live-domain", addr)
	if err != nil {
		return nil, err
	}
	dm := manager.NewDomainManager(LiveDomainManagerAddr, nt.Send, manager.DomainConfig{})
	nt.Bind(LiveDomainManagerAddr, "live-domain", dm.HandleMessage)
	return &LiveDomainManager{nt: nt, dm: dm}, nil
}

// Addr returns the listening address.
func (ld *LiveDomainManager) Addr() string { return ld.nt.Addr() }

// Close stops the manager.
func (ld *LiveDomainManager) Close() error { return ld.nt.Close() }

// Route maps a management address (e.g. a server host manager's) to its
// TCP address so the domain manager can query it.
func (ld *LiveDomainManager) Route(mgmtAddr, tcpAddr string) { ld.nt.Route(mgmtAddr, tcpAddr) }

// RegisterAppServer declares which host manager serves an application's
// server process, as the domain manager's fault-localization rules need.
func (ld *LiveDomainManager) RegisterAppServer(application, hostMgrAddr, executable string) {
	ld.nt.Sync(func() { ld.dm.RegisterAppServer(application, hostMgrAddr, executable) })
}

// Sync runs fn on the transport dispatcher, serialized with message
// handling.
func (ld *LiveDomainManager) Sync(fn func()) { ld.nt.Sync(fn) }

// Manager exposes the underlying domain manager. Only touch it inside
// Sync.
func (ld *LiveDomainManager) Manager() *manager.DomainManager { return ld.dm }

// SetTelemetry attaches transport and domain-manager metrics plus an
// optional tracer.
//
// Frozen-harness shim; goes with ROADMAP item 13.
func (ld *LiveDomainManager) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	ld.nt.SetMetrics(reg)
	ld.nt.Sync(func() { ld.kit.Metrics, ld.kit.Tracer = reg, tracer; ld.dm.SetKit(ld.kit) })
}

// SetEventLog attaches the structured event log the manager's
// decisions and the transport's diagnostics are recorded on. Nil
// detaches.
//
// Frozen-harness shim; goes with ROADMAP item 13.
func (ld *LiveDomainManager) SetEventLog(lg *EventLogger) {
	ld.nt.SetEventLog(lg)
	ld.nt.Sync(func() { ld.kit.Log = lg; ld.dm.SetKit(ld.kit) })
}
