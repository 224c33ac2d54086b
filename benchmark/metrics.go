package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef is one metric of the contract: BENCHMARK.json is printed
// from these tables (see -manifest), and a run emits exactly these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only; never 0 there
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"live_local", "1 report in flight over loopback TCP: the detect-to-adapt path with nothing queued, where any layer's saving shows in latency and in reports/s"},
	{"live_escalate", "violations the host rules escalate: 4 messages over 3 nodes and 2 rule engines per episode, so codec and transport cost counts 4 times"},
	{"fleet_sim", "the 10000-host fleet-smoke simulation: event loop, Bus accounting, three manager tiers, federation; no TCP and no coordinator"},
}

// End-to-end metrics. Every workload reports every one of them; README.md
// says what each means on fleet_sim, where there is no TCP path. The
// timings' bounds are the contract's maximum: the A/A runs on the
// reference box showed inter-quartile spreads from 3% in a quiet hour to
// 30% in a noisy one (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"adapt_p50_us", "us", "lower", 0.25},
	{"adapt_p95_us", "us", "lower", 0.25},
	{"adapt_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_episode", "us", "lower", 0.25},
	{"bytes_per_episode", "B", "lower", 0.03},
	{"register_p50_us", "us", "lower", 0.25},
	{"probe_pass_ns", "ns", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer is built once: the fixed rows plus one encode/decode/size row
// per message kind.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layer("instrument.alarm_self_us", "us", "lower"),
		layer("instrument.install_us", "us", "lower"),
		layer("instrument.notifies", "count", "higher"),
		layer("instrument.suppressed", "count", "lower"),
		layer("msg.send_us", "us", "lower"),
		layer("msg.net_rtt_us", "us", "lower"),
		layer("msg.inbox_wait_p50_us", "us", "lower"),
		layer("msg.inbox_wait_p95_us", "us", "lower"),
		layer("msg.msgs_per_episode", "count", "lower"),
		layer("msg.retries", "count", "lower"),
		layer("msg.reconnects", "count", "lower"),
		layer("msg.send_failed", "count", "lower"),
		layer("msg.dropped", "count", "lower"),
		layer("msg.dropped_invalid", "count", "lower"),
		layer("msg.bus_send_ns", "ns", "lower"),
		layer("msg.bus_messages", "count", "lower"),
		layer("msg.bus_bytes", "B", "lower"),
		layer("rules.host_violation_us", "us", "lower"),
		layer("rules.host_overshoot_us", "us", "lower"),
		layer("rules.host_escalate_us", "us", "lower"),
		layer("rules.domain_episode_us", "us", "lower"),
		layer("rules.allocs_per_episode", "count", "lower"),
		layer("rules.firings_per_episode", "count", "lower"),
		layer("manager.remote_p50_us", "us", "lower"),
		layer("manager.unattributed_us", "us", "lower"),
		layer("manager.violations", "count", "higher"),
		layer("manager.overshoots", "count", "higher"),
		layer("manager.adjustments", "count", "higher"),
		layer("manager.escalations", "count", "higher"),
		layer("manager.rule_errors", "count", "lower"),
		layer("manager.tracked_procs", "count", "higher"),
		layer("manager.domain.alarms", "count", "higher"),
		layer("manager.domain.network_faults", "count", "higher"),
		layer("manager.domain.pending_end", "count", "lower"),
		layer("manager.tier.batches", "count", "lower"),
		layer("manager.tier.batched_alarms", "count", "higher"),
		layer("manager.tier.probes", "count", "lower"),
		layer("manager.tier.fanout_queries", "count", "lower"),
		layer("manager.tier.rebalances", "count", "lower"),
		layer("manager.tier.policy_relays", "count", "lower"),
		layer("agent.register_us", "us", "lower"),
		layer("agent.register_first1k_p50_us", "us", "lower"),
		layer("agent.register_last1k_p50_us", "us", "lower"),
		layer("agent.register_p95_us", "us", "lower"),
		layer("agent.cache_hits", "count", "higher"),
		layer("agent.cache_misses", "count", "lower"),
		layer("repository.policies_for_us", "us", "lower"),
		layer("policy.compile_us", "us", "lower"),
		layer("telemetry.tracer_episode_ns", "ns", "lower"),
		layer("telemetry.histogram_observe_ns", "ns", "lower"),
		layer("telemetry.sketch_observe_ns", "ns", "lower"),
		layer("telemetry.eventlog_append_ns", "ns", "lower"),
		layer("telemetry.traces_open_end", "count", "lower"),
		layer("telemetry.traces_evicted", "count", "lower"),
		layer("telemetry.log_evicted", "count", "lower"),
		layer("telemetry.fed_summaries", "count", "lower"),
		layer("runtime.adjustments", "count", "higher"),
		layer("scenario.fleet_build_s", "s", "lower"),
		layer("scenario.fleet_run_s", "s", "lower"),
		layer("sim.events", "count", "lower"),
		layer("sim.events_per_s", "1/s", "higher"),
		layer("sim.heap_per_host_bytes", "B", "lower"),
		layer("sim.adapt_p99_ms", "ms", "lower"),
		layer("sim.bytes_per_host", "B", "lower"),
		layer("sim.adapted_share", "ratio", "higher"),
		layer("proc.allocs_per_episode", "count", "lower"),
		layer("proc.alloc_bytes_per_episode", "B", "lower"),
		layer("proc.gc_cycles", "count", "lower"),
		layer("proc.gc_pause_ms", "ms", "lower"),
		layer("proc.goroutines_end", "count", "lower"),
		layer("gen.sync_wait_p50_us", "us", "lower"),
		layer("gen.attempted", "count", "higher"),
		layer("gen.timeouts", "count", "lower"),
		layer("gen.pool_min_revisit_ms", "ms", "higher"),
		layer("gen.pacing_stall_ms", "ms", "lower"),
		layer("live.adapt_p99_us", "us", "lower"),
		layer("live.adapt_p999_us", "us", "lower"),
		layer("live.reclaim_p50_us", "us", "lower"),
		layer("trace.overhead_pct", "%", "lower"),
		layer("trace.spans", "count", "higher"),
	}
	for _, k := range wireKinds {
		defs = append(defs,
			layer("msg.encode_ns."+k, "ns", "lower"),
			layer("msg.decode_ns."+k, "ns", "lower"),
			layer("msg.frame_bytes."+k, "B", "lower"))
	}
	return defs
}()

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const runSeconds = 24

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// results collects a run's numbers by name before they are checked
// against the contract's tables.
type results struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string     // why operations failed or gates tripped
	info      []string     // sample counts and other context for the printed table
	pass      *passSampler // nil in a traced run
}

func newResults() *results { return &results{values: make(map[string]float64)} }

func (r *results) set(name string, v float64) { r.values[name] = v }

func (r *results) fail(n int, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outcomeFor selects the metrics of one table. Per-layer metrics a
// workload has no source for read 0; an end-to-end metric must be there.
func (r *results) outcomeFor(defs []metricDef, required bool) (outcome, error) {
	out := outcome{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if required && (!ok || v == 0) {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out.Correct = r.failed == 0
	return out, nil
}

func (o outcome) json() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// table renders metrics by name, with units, for the human reader.
func (o outcome) table() string {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  %-34s %16.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	return s
}
