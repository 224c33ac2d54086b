package softqos

import (
	"time"

	"softqos/internal/msg"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
)

// Rollout API (re-exported from the repository layer).
type (
	// RolloutConfig tunes the canary state machine's bake period; its
	// cohort fraction (0.2) and burn-rate limit (1.0) are fixed.
	RolloutConfig = repository.RolloutConfig
	// RolloutStatus is one rollout's externally visible state — what
	// policyctl status prints and /debug/qos exports.
	RolloutStatus = repository.RolloutStatus
	// RolloutController drives SLO-gated canary rollouts.
	RolloutController = repository.Controller
)

// LivePolicyHubAddr is the management address of the live repository's
// watch/notify hub (the From on pushed policy deltas).
const LivePolicyHubAddr = "/live/RepositoryHub"

// LivePolicyServer is the live policy-distribution side of the
// repository: the TCP directory server policyctl talks to (including
// its push/status/rollback operations), a watch/notify hub pushing
// msg.PolicyDelta to subscribed live agents over the management
// transport, and the SLO-gated canary rollout controller between them.
//
// Wiring order: create it, Watch each live agent's TCP address, give
// the controller a fleet roster (SetHosts) and a compliance gate
// (GateOn), then push policies — via the controller directly or
// through policyctl against Addr(). Pushed policies reach running
// coordinators without a restart: the hub notifies the agents, the
// agents fold the delta into their generation caches and re-deliver
// the new policy view to every registered process it affects.
type LivePolicyServer struct {
	nt  *msg.NetTransport
	srv *repository.Server
	hub *repository.Hub
	ctl *repository.Controller
}

// ServeLivePolicy starts the repository server on addr (use
// "127.0.0.1:0" for an ephemeral port), serving dir over TCP and
// rolling pushed policies out through svc. The returned server owns a
// dial-only transport node for delta pushes; it opens no second
// listener. cfg.Kit is what it records on: transport ("msg.net.*"), hub
// ("repo.hub.*") and rollout ("repo.rollout.*") counters, rollout
// decisions on the tracer, and the hub's announcements, the
// controller's decisions and the transport's diagnostics on the event
// log.
func ServeLivePolicy(addr string, dir *Directory, svc *RepositoryService, cfg RolloutConfig) (*LivePolicyServer, error) {
	nt, err := msg.NewNetTransport("live-repo", "")
	if err != nil {
		return nil, err
	}
	srv, err := repository.ServeDirectory(dir, addr)
	if err != nil {
		_ = nt.Close()
		return nil, err
	}
	nt.SetMetrics(cfg.Kit.Metrics)
	nt.SetEventLog(cfg.Kit.Log)
	hub := repository.NewHub(LivePolicyHubAddr, nt.Send, cfg.Kit)
	ctl := repository.NewController(hub, svc, cfg)
	srv.SetRollout(ctl)
	return &LivePolicyServer{nt: nt, srv: srv, hub: hub, ctl: ctl}, nil
}

// Addr returns the directory server's listen address — the -server
// value policyctl's push/status/rollback verbs take.
func (s *LivePolicyServer) Addr() string { return s.srv.Addr() }

// Watch subscribes live agents (by TCP address, e.g. LiveAgent.Addr())
// to the delta stream. Every announced generation is pushed to each.
func (s *LivePolicyServer) Watch(agentAddrs ...string) { s.hub.Subscribe(agentAddrs...) }

// SetHosts fixes the fleet roster the canary cohort is drawn from. For
// a dynamic roster wire Rollout().SetHosts with a closure instead.
func (s *LivePolicyServer) SetHosts(hosts ...string) {
	roster := make([]string, len(hosts))
	copy(roster, hosts)
	s.ctl.SetHosts(func() []string { return roster })
}

// GateOn wires the promote/rollback gate: bake decisions read the
// SLO compliance computed from tracer's violation episodes against
// targets (typically the host manager's tracer — the process that
// observes the canary's violations), evaluated at now(). Rollout
// decisions are recorded on the tracer of the server's kit.
func (s *LivePolicyServer) GateOn(tracer *telemetry.Tracer, now func() time.Duration, targets []telemetry.SLOTarget) {
	s.ctl.SetComplianceSource(func() []telemetry.PolicyCompliance {
		return telemetry.ComputeCompliance(tracer.TracesSnapshot(), now(), targets)
	})
}

// Rollout exposes the canary controller (for export.WithRollout, a
// dynamic host roster, custom clocks, or direct Push/Rollback calls).
func (s *LivePolicyServer) Rollout() *RolloutController { return s.ctl }

// Generation returns the hub's latest announced generation for an
// executable (0 before the first push).
func (s *LivePolicyServer) Generation(exe string) uint64 { return s.hub.Generation(exe) }

// Close stops the directory server and the delta-push transport.
func (s *LivePolicyServer) Close() error {
	err := s.srv.Close()
	if cerr := s.nt.Close(); err == nil {
		err = cerr
	}
	return err
}
