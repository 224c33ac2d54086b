// Package agent implements the Policy Agent of Section 6.2: processes
// register with it at start-up, and it maps their identity (process,
// executable, application, user role) to the applicable policies from the
// repository, delivering them to the process's coordinator.
//
// The agent also participates in live policy distribution: repository
// hubs push msg.PolicyDelta notifications, which the agent folds into a
// per-executable policy cache keyed by generation number. Registrations
// are then answered from the cache (a hit) instead of a repository
// lookup (a miss), stale deltas are ignored, and a gap in the
// generation chain triggers a full re-pull from the repository. The
// cache holds the any-role policy view; for identities registered with
// a user role the agent overlays their role-specific bindings (which
// live only in the repository) on top of it, shadowing same-name specs
// exactly as Service.PoliciesFor does. Canary
// deltas overlay the cache for their host cohort only; fleet and
// rollback deltas replace the baseline and clear any overlay. Every
// delta is re-delivered to the already-registered processes it affects,
// which is what makes a rollout *live* rather than
// visible-at-next-restart.
package agent

import (
	"slices"
	"sort"
	"sync"

	"softqos/internal/msg"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Send transmits a management message.
type Send = msg.SendFunc

// exeCache is the cached policy state for one executable, maintained
// purely by the delta stream (it does not exist until the first delta
// arrives, so a deployment that never pushes deltas behaves exactly as
// one built before the cache existed).
type exeCache struct {
	gen         uint64
	baseline    []msg.PolicySpec // fleet-wide truth as of gen
	canary      []msg.PolicySpec // overlay for the canary cohort; nil when none
	canaryHosts map[string]bool
}

// specsFor returns the policy view a process on host should run.
func (c *exeCache) specsFor(host string) []msg.PolicySpec {
	if c.canary != nil && c.canaryHosts[host] {
		return c.canary
	}
	return c.baseline
}

// CacheStats is a snapshot of the agent's policy-cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Refreshes uint64 `json:"refreshes"` // generation-gap full re-pulls
	// RefreshFailures counts gap re-pulls the repository refused; the
	// delta that triggered one is dropped without advancing the cached
	// generation, so the next delta re-detects the gap and retries.
	RefreshFailures uint64 `json:"refresh_failures"`
	Stale           uint64 `json:"stale"`   // deltas ignored as not newer
	Applied         uint64 `json:"applied"` // deltas folded into the cache
}

// PolicyAgent answers process registrations with their policy sets.
type PolicyAgent struct {
	mu   sync.Mutex
	addr string
	svc  *repository.Service
	send Send

	roster map[string]msg.Register // registrant address -> registration
	order  []string                // registrant addresses, sorted
	cache  map[string]*exeCache    // executable -> cached policy view

	// Registrations counts successful policy deliveries; Failures counts
	// repository lookups that failed (the registrant then receives an
	// explicit Nack rather than a silently empty policy set).
	Registrations uint64
	Failures      uint64

	stats CacheStats

	mRegistrations *telemetry.Counter
	mFailures      *telemetry.Counter
	mCacheHits     *telemetry.Counter
	mCacheMisses   *telemetry.Counter
	mCacheRefresh  *telemetry.Counter
	mCacheStale    *telemetry.Counter
	mDeltasApplied *telemetry.Counter
	mRefreshFail   *telemetry.Counter

	// evlog, when set, records cache anomalies (stale deltas, generation
	// gaps, failed re-pulls) as structured events (component "agent").
	evlog *eventlog.Logger
}

// New creates a policy agent bound to addr, resolving policies through
// svc.
func New(addr string, svc *repository.Service, send Send) *PolicyAgent {
	return &PolicyAgent{
		addr:   addr,
		svc:    svc,
		send:   send,
		roster: make(map[string]msg.Register),
		cache:  make(map[string]*exeCache),
	}
}

// Addr returns the agent's management address.
func (a *PolicyAgent) Addr() string { return a.addr }

// SetTelemetry attaches the agent to a metrics registry: counters
// "agent.registrations", "agent.failures" (failed repository lookups,
// i.e. Nacks sent), the policy-cache counters "agent.cache.hits",
// "agent.cache.misses", "agent.cache.refreshes" (gap-triggered full
// re-pulls), "agent.cache.refresh_failures" (re-pulls the repository
// refused), "agent.cache.stale_deltas", and "agent.deltas_applied".
func (a *PolicyAgent) SetTelemetry(reg *telemetry.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if reg == nil {
		a.mRegistrations, a.mFailures = nil, nil
		a.mCacheHits, a.mCacheMisses, a.mCacheRefresh, a.mCacheStale, a.mDeltasApplied = nil, nil, nil, nil, nil
		a.mRefreshFail = nil
		return
	}
	a.mRegistrations = reg.Counter("agent.registrations")
	a.mFailures = reg.Counter("agent.failures")
	a.mCacheHits = reg.Counter("agent.cache.hits")
	a.mCacheMisses = reg.Counter("agent.cache.misses")
	a.mCacheRefresh = reg.Counter("agent.cache.refreshes")
	a.mRefreshFail = reg.Counter("agent.cache.refresh_failures")
	a.mCacheStale = reg.Counter("agent.cache.stale_deltas")
	a.mDeltasApplied = reg.Counter("agent.deltas_applied")
}

// SetEventLog attaches the structured event log cache anomalies are
// recorded on (component "agent"). Nil detaches.
func (a *PolicyAgent) SetEventLog(lg *eventlog.Logger) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.evlog = lg
}

// CacheStats returns the policy-cache counters.
func (a *PolicyAgent) CacheStats() CacheStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Generation returns the cached generation for an executable (0 when
// the delta stream has not reached the agent for it).
func (a *PolicyAgent) Generation(exe string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.cache[exe]; c != nil {
		return c.gen
	}
	return 0
}

// HandleMessage processes one inbound management message (Register or
// PolicyDelta).
func (a *PolicyAgent) HandleMessage(m msg.Message) {
	switch body := m.Body.(type) {
	case msg.Register:
		a.handleRegister(m.From, body)
	case msg.PolicyDelta:
		a.handleDelta(m.Trace, body)
	}
}

func (a *PolicyAgent) handleRegister(from string, reg msg.Register) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, known := a.roster[from]; !known {
		a.order = slices.Insert(a.order, sort.SearchStrings(a.order, from), from) // stays sorted
	}
	a.roster[from] = reg

	var specs []msg.PolicySpec
	if ce := a.cache[reg.ID.Executable]; ce != nil {
		if reg.ID.UserRole == "" {
			// Cache hit: the delta-maintained view answers outright.
			a.stats.Hits++
			if a.mCacheHits != nil {
				a.mCacheHits.Inc()
			}
			specs = ce.specsFor(reg.ID.Host)
		} else {
			// The cache carries the any-role view only; a role-bound
			// identity needs its role-specific bindings overlaid on top,
			// and those exist solely in the repository — serving the raw
			// cache would silently drop them. The repository walk makes
			// this a miss, but the cache still contributes: an active
			// canary overlay reaches role-bound cohort processes too.
			a.stats.Misses++
			if a.mCacheMisses != nil {
				a.mCacheMisses.Inc()
			}
			var err error
			specs, err = a.viewFor(ce, reg.ID)
			if err != nil {
				a.Failures++
				if a.mFailures != nil {
					a.mFailures.Inc()
				}
				_ = a.send(from, msg.Message{
					From: a.addr,
					Body: msg.Nack{ID: reg.ID, Ref: "register", Reason: err.Error()},
				})
				return
			}
		}
	} else {
		a.stats.Misses++
		if a.mCacheMisses != nil {
			a.mCacheMisses.Inc()
		}
		var err error
		specs, err = a.svc.PoliciesFor(reg.ID)
		if err != nil {
			// A failed lookup must not masquerade as "no policies apply":
			// reply with an explicit Nack so the coordinator knows it is
			// unmanaged because of a fault, not by configuration.
			a.Failures++
			if a.mFailures != nil {
				a.mFailures.Inc()
			}
			_ = a.send(from, msg.Message{
				From: a.addr,
				Body: msg.Nack{ID: reg.ID, Ref: "register", Reason: err.Error()},
			})
			return
		}
	}
	a.Registrations++
	if a.mRegistrations != nil {
		a.mRegistrations.Inc()
	}
	_ = a.send(from, msg.Message{
		From: a.addr,
		Body: msg.PolicySet{ID: reg.ID, Policies: filterBySensors(specs, reg.Sensors)},
	})
}

// handleDelta folds one policy delta into the cache and re-delivers the
// resulting policy view to every registered process of the executable.
func (a *PolicyAgent) handleDelta(trace telemetry.TraceContext, d msg.PolicyDelta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ce, known := a.cache[d.Executable]
	if !known {
		ce = &exeCache{}
	}
	if d.Generation <= ce.gen {
		// Stale: duplicated or reordered in flight. The cache already
		// reflects a newer generation; applying this one would roll the
		// fleet backwards.
		a.stats.Stale++
		if a.mCacheStale != nil {
			a.mCacheStale.Inc()
		}
		a.evlog.EventCtx(trace, eventlog.Debug, "agent", "delta_stale",
			eventlog.Str("executable", d.Executable),
			eventlog.Int("generation", int(d.Generation)),
			eventlog.Int("cached", int(ce.gen)))
		return
	}
	if !known || d.Prev != ce.gen {
		// Gap (or a brand-new cache entry, which is the same situation:
		// the baseline is unknown): the payload alone cannot reconstruct
		// the missed state, so re-pull the repository's full truth; the
		// delta's own payload is then applied on top as usual.
		a.stats.Refreshes++
		if a.mCacheRefresh != nil {
			a.mCacheRefresh.Inc()
		}
		a.evlog.EventCtx(trace, eventlog.Info, "agent", "cache_gap",
			eventlog.Str("executable", d.Executable),
			eventlog.Int("generation", int(d.Generation)),
			eventlog.Int("prev", int(d.Prev)),
			eventlog.Int("cached", int(ce.gen)))
		specs, err := a.svc.PoliciesFor(msg.Identity{Executable: d.Executable})
		if err != nil {
			// Without repository truth the gap cannot be healed. Drop the
			// delta WITHOUT advancing the cached generation: the next
			// delta's Prev then mismatches again, re-detecting the gap and
			// retrying the re-pull. Advancing would make the chain look
			// converged on a stale baseline forever.
			a.stats.RefreshFailures++
			if a.mRefreshFail != nil {
				a.mRefreshFail.Inc()
			}
			a.evlog.EventCtx(trace, eventlog.Error, "agent", "refresh_failure",
				eventlog.Str("executable", d.Executable),
				eventlog.Int("generation", int(d.Generation)),
				eventlog.Str("error", err.Error()))
			return
		}
		ce.baseline = specs
	}
	switch d.Scope {
	case "canary":
		ce.canary = d.Policies
		ce.canaryHosts = make(map[string]bool, len(d.Hosts))
		for _, h := range d.Hosts {
			ce.canaryHosts[h] = true
		}
	case "fleet", "rollback":
		ce.baseline = d.Policies
		ce.canary, ce.canaryHosts = nil, nil
	default:
		return // transports validate scopes; defense in depth
	}
	ce.gen = d.Generation
	a.cache[d.Executable] = ce
	a.stats.Applied++
	if a.mDeltasApplied != nil {
		a.mDeltasApplied.Inc()
	}

	// Re-deliver to affected registrants in sorted address order so the
	// fan-out is deterministic. A canary delta changes nothing for hosts
	// outside the cohort, so only cohort registrants are re-delivered;
	// fleet and rollback deltas go to everyone running the executable.
	// Each registrant gets its own sensor-filtered view, carrying the
	// delta's trace context so rollout traces show the delivery fan-out.
	//
	// The delta stream carries the any-role view; registrants with a
	// user role get their role-specific repository bindings overlaid on
	// it (shadowing same-name specs), so a canary reaches role-bound
	// cohort processes too — unless a role binding shadows the pushed
	// policy itself, in which case the shadow wins, exactly as it would
	// after promotion.
	for _, addr := range a.order {
		reg := a.roster[addr]
		if reg.ID.Executable != d.Executable {
			continue
		}
		if d.Scope == "canary" && !ce.canaryHosts[reg.ID.Host] {
			continue
		}
		specs, err := a.viewFor(ce, reg.ID)
		if err != nil {
			// The registrant keeps its current policy set; the failure
			// is counted like a failed registration lookup.
			a.Failures++
			if a.mFailures != nil {
				a.mFailures.Inc()
			}
			continue
		}
		_ = a.send(addr, msg.Message{
			From:  a.addr,
			Trace: trace,
			Body: msg.PolicySet{ID: reg.ID,
				Policies: filterBySensors(specs, reg.Sensors)},
		})
	}
}

// viewFor computes the effective policy view for one identity from a
// cache entry: the cached any-role view (canary overlay for cohort
// hosts, baseline otherwise), with the identity's role-specific
// repository bindings overlaid on top. For identities without a role
// this is the cache view itself and cannot fail.
func (a *PolicyAgent) viewFor(ce *exeCache, id msg.Identity) ([]msg.PolicySpec, error) {
	base := ce.specsFor(id.Host)
	if id.UserRole == "" {
		return base, nil
	}
	roleSpecs, err := a.svc.RolePoliciesFor(id)
	if err != nil {
		return nil, err
	}
	return overlayRole(base, roleSpecs), nil
}

// overlayRole merges role-specific bindings over the any-role view:
// a role binding replaces the same-name spec or is added, and the
// result is name-sorted so it matches Service.PoliciesFor for the same
// identity. With no role bindings the base is returned untouched.
func overlayRole(base, roleSpecs []msg.PolicySpec) []msg.PolicySpec {
	if len(roleSpecs) == 0 {
		return base
	}
	byName := make(map[string]int, len(base))
	merged := make([]msg.PolicySpec, len(base))
	copy(merged, base)
	for i, s := range merged {
		byName[s.Name] = i
	}
	for _, rs := range roleSpecs {
		if i, ok := byName[rs.Name]; ok {
			merged[i] = rs
		} else {
			merged = append(merged, rs)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	return merged
}

// filterBySensors drops policies referencing sensors the process did
// not report: they cannot be enforced there, and delivering them would
// poison the coordinator (the management application normally prevents
// the situation through its integrity checks). With no reported sensors
// the specs pass through unfiltered. The input slice is never mutated —
// it may be the agent's cache.
func filterBySensors(specs []msg.PolicySpec, sensors []string) []msg.PolicySpec {
	if len(sensors) == 0 {
		return specs
	}
	have := make(map[string]bool, len(sensors))
	for _, s := range sensors {
		have[s] = true
	}
	kept := make([]msg.PolicySpec, 0, len(specs))
	for _, spec := range specs {
		ok := true
		for _, c := range spec.Conditions {
			if !have[c.Sensor] {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, spec)
		}
	}
	return kept
}
