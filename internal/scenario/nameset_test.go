package scenario

import (
	"sort"
	"strings"
	"testing"
	"time"

	"softqos/internal/faults"
	"softqos/internal/telemetry"
	"softqos/internal/video"
)

// dataKeyedPrefixes are the only metric families allowed to appear
// after wiring: their names are keyed by run-time data, not by what was
// wired.
var dataKeyedPrefixes = []string{
	// log.<component>.<level>: the event log's error-class counters,
	// created by eventlog.WithSink sinks as records of each class occur.
	"log.",
}

func metricNames(reg *telemetry.Registry) map[string]bool {
	snap := reg.Snapshot()
	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, h := range snap.Histograms {
		names[h.Name] = true
	}
	return names
}

// lateNames returns the names in after but not in before, minus the
// data-keyed families, sorted.
func lateNames(before, after map[string]bool) []string {
	var late []string
names:
	for n := range after {
		if before[n] {
			continue
		}
		for _, p := range dataKeyedPrefixes {
			if strings.HasPrefix(n, p) {
				continue names
			}
		}
		late = append(late, n)
	}
	sort.Strings(late)
	return late
}

func counterValues(reg *telemetry.Registry) map[string]uint64 {
	vals := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		vals[c.Name] = c.Value
	}
	return vals
}

// TestMetricNameSetFixedAtWiring pins the registry invariant: the set
// of metric names is a function of what was wired, not of what happened.
// With every optional subsystem armed, the names present at t = 0 are
// the names present after a seeded chaos window in which the formerly
// first-use counters (evictions, retries, timeouts, fan-outs, relays,
// injected faults) all fire; data-keyed families aside, none appears
// (a registry cannot lose a name: it has no unregister).
func TestMetricNameSetFixedAtWiring(t *testing.T) {
	t.Run("scenario", func(t *testing.T) {
		// The churn scenario plus a loaded server, so violations
		// escalate to the domain manager and its queries meet the faults.
		cfg := churnCfg(11)
		cfg.Faults = faults.RandomPlan(11, 0.05, 4*time.Minute)
		cfg.ServerLoad = 4
		cfg.Stream = video.StreamConfig{ServerCost: 34 * time.Millisecond, DecodeCost: 10 * time.Millisecond}
		cfg.EventLog = true
		cfg.Observe = true
		sys := Build(cfg)
		before := metricNames(sys.Metrics)
		sys.Run(30*time.Second, 3*time.Minute)
		after := metricNames(sys.Metrics)

		if late := lateNames(before, after); len(late) > 0 {
			t.Errorf("metric names registered after wiring: %v", late)
		}
		// The window must exercise the paths that used to register on
		// first use, or the comparison above proves nothing.
		vals := counterValues(sys.Metrics)
		for _, name := range []string{
			"faults.injected.drop", "faults.injected.delay", "faults.injected.crash",
			"manager.client-host.agents_evicted", "domain.policy_deltas_relayed",
			"domain.query_retries", "domain.episode_timeouts",
		} {
			if vals[name] == 0 {
				t.Errorf("%s = 0: the chaos window did not exercise it", name)
			}
		}
	})

	t.Run("fleet", func(t *testing.T) {
		sys := BuildFleet(FleetConfig{Seed: 7, Hosts: 60, Domains: 3, ProcsPerHost: 4,
			SpikeProb: 0.10, Trace: true, Federate: true, EventLog: true, PolicyGens: 2})
		sys.Start()
		before := metricNames(sys.Metrics)
		sys.Run(3 * time.Minute)
		after := metricNames(sys.Metrics)

		if late := lateNames(before, after); len(late) > 0 {
			t.Errorf("metric names registered after wiring: %v", late)
		}
		vals := counterValues(sys.Metrics)
		for _, name := range []string{
			"domain.fanouts", "domain.fanout_queries", "batch.domain.flushes",
			"batch.domain.alarms", "domain.policy_deltas_relayed", "region.policy_deltas_relayed",
		} {
			if vals[name] == 0 {
				t.Errorf("%s = 0: the fleet window did not exercise it", name)
			}
		}
	})
}
