package repository

import (
	"fmt"
	"sort"
	"time"

	"sync"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/policy"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Rollout states.
const (
	RolloutBaking     = "baking"
	RolloutPromoted   = "promoted"
	RolloutRolledBack = "rolled-back"
)

// The canary state machine's fixed thresholds.
const (
	// canaryFraction is the fraction of known hosts put in the canary
	// cohort (at least one host).
	canaryFraction = 0.2
	// maxFastBurn is the fast-window burn rate above which the bake
	// decision is rollback even if the slow window still looks healthy:
	// burning the error budget exactly at the allowed rate.
	maxFastBurn = 1.0
)

// RolloutConfig tunes the canary state machine.
type RolloutConfig struct {
	// Bake is how long the canary generation runs before the
	// promote/rollback decision. 0 means 30s. The cohort is the first
	// ceil(0.2*N) of N hosts, and a fast-window burn above 1.0 at bake
	// end rolls back.
	Bake time.Duration
	// Kit is what the controller records on: every decision as a span
	// with its rule's explanation on the tracer, the counters
	// "repo.rollout.promoted", "repo.rollout.rolled_back" and
	// "repo.rollout.idempotent_pushes", and the decisions on the event
	// log (component "rollout").
	Kit obs.Kit
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.Bake <= 0 {
		c.Bake = 30 * time.Second
	}
	return c
}

// RolloutStatus is the externally visible snapshot of one rollout: what
// policyctl status prints and /debug/qos exports.
type RolloutStatus struct {
	// Generation is the canary generation under evaluation.
	Generation uint64 `json:"generation"`
	// FleetGeneration is the generation of the terminal fleet or
	// rollback delta; 0 while baking.
	FleetGeneration uint64 `json:"fleet_generation,omitempty"`
	Policy          string `json:"policy"`
	Executable      string `json:"executable"`
	// State is one of "baking", "promoted", "rolled-back".
	State       string        `json:"state"`
	CanaryHosts []string      `json:"canary_hosts,omitempty"`
	StartedNs   time.Duration `json:"started_ns"`
	DecidedNs   time.Duration `json:"decided_ns,omitempty"`
	// Reason records the decision cause ("bake window compliant",
	// "fast-burn breach ...", "canary host h-3 evicted mid-bake", ...).
	Reason string `json:"reason,omitempty"`
}

// Controller drives SLO-gated canary rollouts over a Hub: a pushed
// policy first reaches a deterministic subset of hosts as a canary
// generation, bakes for a configured period while the SLO tracker's
// fast-window compliance and burn rates are watched, and is then either
// promoted fleet-wide (and persisted into the repository service) or
// rolled back (the service is never touched, so a rollback delta simply
// re-announces the repository's unchanged truth). Every decision is
// recorded on a violation-style trace with an Explanation naming the
// rule that fired, so "why did generation 7 roll back?" is answerable
// from the trace timeline alone.
//
// One rollout bakes at a time; the repository service always holds only
// promoted truth, which is what makes gap-triggered full re-pulls by
// agent caches safe at any instant.
type Controller struct {
	mu  sync.Mutex
	hub *Hub
	svc *Service
	cfg RolloutConfig

	now        func() time.Duration
	after      func(time.Duration, func())
	compliance func() []telemetry.PolicyCompliance
	hosts      func() []string
	tracer     *telemetry.Tracer

	cur     *activeRollout
	history []RolloutStatus

	mPromoted   *telemetry.Counter // repo.rollout.promoted
	mRolledBack *telemetry.Counter // repo.rollout.rolled_back
	mIdempotent *telemetry.Counter // repo.rollout.idempotent_pushes
	// evlog records rollout decisions with their rule provenance.
	evlog *eventlog.Logger
}

type activeRollout struct {
	status RolloutStatus
	pol    *policy.Policy
	meta   PolicyMeta
	text   string
	cohort map[string]bool
	ctx    telemetry.TraceContext
}

// NewController creates a rollout controller pushing through hub and
// promoting into svc, recording on cfg.Kit. By default it runs on the
// wall clock; simulations inject their virtual clock with SetClock.
// Compliance and host sources must be set before the first Push.
func NewController(hub *Hub, svc *Service, cfg RolloutConfig) *Controller {
	start := time.Now()
	c := &Controller{
		hub:    hub,
		svc:    svc,
		cfg:    cfg.withDefaults(),
		now:    func() time.Duration { return time.Since(start) },
		after:  func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		tracer: cfg.Kit.Tracer,
		evlog:  cfg.Kit.Log,
	}
	if reg := cfg.Kit.Metrics; reg != nil {
		c.mPromoted = reg.Counter("repo.rollout.promoted")
		c.mRolledBack = reg.Counter("repo.rollout.rolled_back")
		c.mIdempotent = reg.Counter("repo.rollout.idempotent_pushes")
	}
	return c
}

// SetClock injects the time source and timer used for the bake period
// (the simulator's virtual clock, or the wall clock in live mode).
func (c *Controller) SetClock(now func() time.Duration, after func(time.Duration, func())) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now, c.after = now, after
}

// SetComplianceSource injects the SLO tracker the bake decision reads
// (typically a closure over telemetry.ComputeCompliance).
func (c *Controller) SetComplianceSource(fn func() []telemetry.PolicyCompliance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compliance = fn
}

// SetHosts injects the fleet roster the canary cohort is drawn from.
func (c *Controller) SetHosts(fn func() []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hosts = fn
}

const rolloutTracePolicy = "rollout"

// canaryCohort picks the deterministic canary subset: hosts sorted by
// name, first ceil(canaryFraction*N), at least one.
func canaryCohort(hosts []string) []string {
	sorted := make([]string, len(hosts))
	copy(sorted, hosts)
	sort.Strings(sorted)
	n := int(float64(len(sorted))*canaryFraction + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// Push starts a canary rollout of the policy source text under the
// given binding. The policy is parsed and compiled first (a push that
// cannot compile never consumes a generation), the canary cohort gets a
// delta carrying the merged view (current repository truth plus the new
// policy), and the bake timer is armed. Re-pushing byte-identical text
// for the same binding while its rollout is still baking is idempotent:
// no new generation is announced and the existing status is returned.
// Pushing a different policy while one is baking is an error — one
// rollout at a time.
func (c *Controller) Push(text string, meta PolicyMeta) (RolloutStatus, error) {
	p, err := policy.ParseOne(text)
	if err != nil {
		return RolloutStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.compliance == nil || c.hosts == nil {
		return RolloutStatus{}, fmt.Errorf("repository: rollout controller not wired (compliance/hosts source missing)")
	}
	if c.cur != nil && c.cur.status.State == RolloutBaking {
		if c.cur.text == text && c.cur.meta == meta {
			// Idempotent re-push of the generation already baking.
			c.mIdempotent.Inc()
			c.decision(c.cur, telemetry.StageNotify,
				fmt.Sprintf("idempotent re-push of generation %d ignored", c.cur.status.Generation),
				"idempotent-repush")
			c.evlog.EventCtx(c.cur.ctx, eventlog.Debug, "rollout", "idempotent_push",
				eventlog.Str("policy", c.cur.status.Policy),
				eventlog.Str("executable", c.cur.status.Executable),
				eventlog.Int("generation", int(c.cur.status.Generation)),
				eventlog.Str("rule", "idempotent-repush"))
			return c.cur.status, nil
		}
		return RolloutStatus{}, fmt.Errorf("repository: rollout of generation %d (%s@%s) still baking",
			c.cur.status.Generation, c.cur.status.Policy, c.cur.status.Executable)
	}

	sensors, err := c.svc.SensorsFor(meta.Executable)
	if err != nil {
		return RolloutStatus{}, err
	}
	attrSensor := make(map[string]string)
	for sensor, attrs := range sensors {
		for _, a := range attrs {
			attrSensor[a] = sensor
		}
	}
	spec, err := policy.Compile(p, attrSensor)
	if err != nil {
		return RolloutStatus{}, err
	}

	fleet := c.hosts()
	if len(fleet) == 0 {
		return RolloutStatus{}, fmt.Errorf("repository: no hosts known to the rollout controller")
	}
	cohort := canaryCohort(fleet)

	baseline, err := c.svc.PoliciesFor(msg.Identity{Executable: meta.Executable})
	if err != nil {
		return RolloutStatus{}, err
	}
	canarySpecs := mergeSpec(baseline, spec)

	subject := policyCN(p.Name, meta)
	var ctx telemetry.TraceContext
	if c.tracer != nil {
		ctx = c.tracer.Begin(subject, rolloutTracePolicy, "repository.rollout",
			fmt.Sprintf("canary push of %q to %d/%d hosts", p.Name, len(cohort), len(fleet)))
	}
	gen, err := c.hub.Announce(meta.Executable, "canary", cohort, canarySpecs,
		fmt.Sprintf("canary of %q baking %s", p.Name, c.cfg.Bake), ctx)
	if err != nil {
		if c.tracer != nil {
			c.tracer.Abandon(subject, rolloutTracePolicy, "repository.rollout",
				"canary announce failed: "+err.Error())
		}
		return RolloutStatus{}, err
	}

	cohortSet := make(map[string]bool, len(cohort))
	for _, h := range cohort {
		cohortSet[h] = true
	}
	c.cur = &activeRollout{
		status: RolloutStatus{
			Generation:  gen,
			Policy:      p.Name,
			Executable:  meta.Executable,
			State:       RolloutBaking,
			CanaryHosts: cohort,
			StartedNs:   c.now(),
		},
		pol:    p,
		meta:   meta,
		text:   text,
		cohort: cohortSet,
		ctx:    ctx,
	}
	c.evlog.EventCtx(ctx, eventlog.Info, "rollout", "canary_push",
		eventlog.Str("policy", p.Name), eventlog.Str("executable", meta.Executable),
		eventlog.Int("generation", int(gen)),
		eventlog.Int("cohort", len(cohort)), eventlog.Int("fleet", len(fleet)))
	c.after(c.cfg.Bake, func() { c.bakeExpired(gen) })
	return c.cur.status, nil
}

// mergeSpec returns baseline with spec replacing (or joining) its
// namesake, name-sorted like Service.PoliciesFor output.
func mergeSpec(baseline []msg.PolicySpec, spec msg.PolicySpec) []msg.PolicySpec {
	out := make([]msg.PolicySpec, 0, len(baseline)+1)
	replaced := false
	for _, b := range baseline {
		if b.Name == spec.Name {
			out = append(out, spec)
			replaced = true
			continue
		}
		out = append(out, b)
	}
	if !replaced {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bakeExpired is the timer callback making the promote/rollback
// decision for the canary generation gen.
func (c *Controller) bakeExpired(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.cur
	if r == nil || r.status.Generation != gen || r.status.State != RolloutBaking {
		return // superseded (rolled back early, e.g. on host eviction)
	}
	var pc telemetry.PolicyCompliance
	for _, comp := range c.compliance() {
		if comp.Policy == r.status.Policy {
			pc = comp
			break
		}
	}
	switch {
	case pc.Breaching():
		c.rollbackLocked(fmt.Sprintf("burn-rate breach at bake end: fast %.2f slow %.2f",
			pc.FastBurn, pc.SlowBurn), "rollback-on-burn")
	case pc.FastBurn > maxFastBurn:
		c.rollbackLocked(fmt.Sprintf("fast burn %.2f over limit %.2f at bake end",
			pc.FastBurn, maxFastBurn), "rollback-on-burn")
	default:
		c.promoteLocked(fmt.Sprintf("bake window compliant (fast burn %.2f, fast compliance %.2f)",
			pc.FastBurn, complianceOrPerfect(pc)))
	}
}

// complianceOrPerfect: a policy with no episodes yields the zero
// PolicyCompliance whose FastCompliance reads 0; report it as the 1.0
// it semantically is.
func complianceOrPerfect(pc telemetry.PolicyCompliance) float64 {
	if pc.Policy == "" {
		return 1
	}
	return pc.FastCompliance
}

// HostEvicted informs the controller a host left the fleet. If the
// host was part of the baking canary cohort the rollout can no longer
// be judged and is rolled back immediately.
func (c *Controller) HostEvicted(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.cur
	if r == nil || r.status.State != RolloutBaking || !r.cohort[host] {
		return
	}
	c.rollbackLocked(fmt.Sprintf("canary host %s evicted mid-bake", host), "rollback-on-eviction")
}

// Rollback aborts the baking rollout by operator request.
func (c *Controller) Rollback(reason string) (RolloutStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.cur
	if r == nil || r.status.State != RolloutBaking {
		return RolloutStatus{}, fmt.Errorf("repository: no rollout baking")
	}
	if reason == "" {
		reason = "operator rollback"
	}
	c.rollbackLocked(reason, "rollback-on-request")
	return r.status, nil
}

// promoteLocked persists the canary policy into the repository service
// and announces the new repository truth fleet-wide. Caller holds mu.
// ReplacePolicy restores the prior binding if the store fails, so the
// rollback announced on failure carries unchanged repository truth.
func (c *Controller) promoteLocked(reason string) {
	r := c.cur
	if err := c.svc.ReplacePolicy(r.pol, r.meta); err != nil {
		c.rollbackLocked("promote failed: "+err.Error(), "rollback-on-store-failure")
		return
	}
	fleetSpecs, err := c.svc.PoliciesFor(msg.Identity{Executable: r.meta.Executable})
	if err != nil {
		c.rollbackLocked("promote failed: "+err.Error(), "rollback-on-store-failure")
		return
	}
	fgen, _ := c.hub.Announce(r.meta.Executable, "fleet", nil, fleetSpecs, reason, r.ctx)
	r.status.State = RolloutPromoted
	r.status.FleetGeneration = fgen
	r.status.DecidedNs = c.now()
	r.status.Reason = reason
	c.mPromoted.Inc()
	c.decision(r, telemetry.StageAdapt, "promoted fleet-wide: "+reason, "promote-on-compliant-bake")
	c.evlog.EventCtx(r.ctx, eventlog.Info, "rollout", "promoted",
		eventlog.Str("policy", r.pol.Name), eventlog.Str("executable", r.meta.Executable),
		eventlog.Int("generation", int(r.status.Generation)),
		eventlog.Int("fleet_generation", int(fgen)),
		eventlog.Str("rule", "promote-on-compliant-bake"), eventlog.Str("reason", reason))
	if c.tracer != nil {
		c.tracer.Resolve(policyCN(r.pol.Name, r.meta), rolloutTracePolicy)
	}
	c.history = append(c.history, r.status)
}

// rollbackLocked announces the unchanged repository truth as a
// rollback delta — the service was never touched by the canary, so no
// state needs undoing. Caller holds mu.
func (c *Controller) rollbackLocked(reason, rule string) {
	r := c.cur
	baseline, err := c.svc.PoliciesFor(msg.Identity{Executable: r.meta.Executable})
	if err != nil {
		baseline = nil // still announce: an empty baseline clears the canary overlay
	}
	fgen, _ := c.hub.Announce(r.meta.Executable, "rollback", nil, baseline, reason, r.ctx)
	r.status.State = RolloutRolledBack
	r.status.FleetGeneration = fgen
	r.status.DecidedNs = c.now()
	r.status.Reason = reason
	c.mRolledBack.Inc()
	c.decision(r, telemetry.StageEscalate, "rolled back: "+reason, rule)
	c.evlog.EventCtx(r.ctx, eventlog.Warn, "rollout", "rolled_back",
		eventlog.Str("policy", r.pol.Name), eventlog.Str("executable", r.meta.Executable),
		eventlog.Int("generation", int(r.status.Generation)),
		eventlog.Int("fleet_generation", int(fgen)),
		eventlog.Str("rule", rule), eventlog.Str("reason", reason))
	if c.tracer != nil {
		c.tracer.Abandon(policyCN(r.pol.Name, r.meta), rolloutTracePolicy, "repository.rollout", reason)
	}
	c.history = append(c.history, r.status)
}

// decision records a rollout decision on the trace: a span with the
// human-readable cause plus an Explanation naming the state-machine
// rule that fired. Caller holds mu.
func (c *Controller) decision(r *activeRollout, stage, detail, rule string) {
	if c.tracer == nil {
		return
	}
	subject := policyCN(r.pol.Name, r.meta)
	ctx := c.tracer.EventCtx(r.ctx, subject, rolloutTracePolicy, "repository.rollout", stage, detail)
	c.tracer.Explain(ctx, subject, rolloutTracePolicy, telemetry.Explanation{
		Engine: "rollout",
		Rule:   rule,
		Bindings: map[string]string{
			"generation": fmt.Sprintf("%d", r.status.Generation),
			"policy":     r.pol.Name,
			"executable": r.meta.Executable,
		},
	})
}

// Status returns the current (or most recently decided) rollout.
func (c *Controller) Status() (RolloutStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return RolloutStatus{}, false
	}
	return c.cur.status, true
}

// History returns the decided rollouts in decision order.
func (c *Controller) History() []RolloutStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RolloutStatus, len(c.history))
	copy(out, c.history)
	return out
}
