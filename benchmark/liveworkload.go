package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool // the harness tests' sizes: small pool, short probes
	outDir   string
}

func (cfg runConfig) probeTime() time.Duration {
	if cfg.quick {
		return 2 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// registerP50 is the Register() round trip in µs at a roster below a
// thousand — one process joining, the paper's Overhead-1. What a
// registration costs grows with the roster (setup_s carries the whole
// pool's), so only like is compared with like: the first 1024
// registrations of every set-up, in chunks of 128, and the first
// quartile of the chunks' medians.
func registerP50(setups [][]int64) float64 {
	const head, chunk = 1024, 128
	var medians []float64
	for _, ns := range setups {
		if len(ns) > head {
			ns = ns[:head]
		}
		for from := 0; from+chunk <= len(ns); from += chunk {
			medians = append(medians, median(toFloats(ns[from:from+chunk], 1e3)))
		}
	}
	return undisturbed(medians, true)
}

// runLive runs one live workload: set-up (three times when set-up time
// is reported, so its median is steady), warm-up, the measured window,
// and with tracing a second, traced window and the probes.
func runLive(cfg runConfig, res *results) error {
	spec := liveSpecs[cfg.workload]
	warm := 2 * time.Second
	setups := 3
	if cfg.quick {
		// No warm-up: at 2 x 256 reports/s the pacing ceiling leaves only
		// the first pass over the pool inside a sub-second window.
		spec.pool, warm = quickPool, 0
	}
	if cfg.trace || cfg.quick {
		setups = 1
	}
	if cfg.trace {
		// Probes first: by the end of the run the heap holds every episode's
		// trace, and a probe that allocates would be timing its collection.
		runProbes(res, spec.pool, cfg.probeTime())
	}
	var r *liveRun
	var setupSecs []float64
	var regNs [][]int64 // per set-up, in registration order
	for i := 0; i < setups; i++ {
		if r != nil {
			r.st.close()
		}
		t := time.Now()
		var err error
		if r, err = setupLive(spec, cfg.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t).Seconds())
		regNs = append(regNs, r.regNs)
		res.pass.sample()
	}
	defer r.st.close()

	each := time.Duration(cfg.seconds * float64(time.Second))
	phases := []int32{phaseWindow}
	if cfg.trace {
		each /= 2
		phases = append(phases, phaseTraced)
	}
	windows := r.run(warm, phases, each)
	res.pass.sample()
	counts := r.st.counts()
	r.gates(counts, res)
	res.attempted = r.attempted()

	w := windows[0]
	if len(w.samples) == 0 {
		return fmt.Errorf("no episode completed in the %v window", each)
	}
	viol, over := latencies(w.samples)
	if len(viol) == 0 {
		return fmt.Errorf("no violation episode completed in the %v window", each)
	}
	episodes, last := float64(len(w.samples)), w.ticks[len(w.ticks)-1]
	regUS := sortedCopy(toFloats(r.regNs, 1e3))
	res.info = append(res.info,
		fmt.Sprintf("pool %d processes over %d connections, %d reports in flight per connection (closed loop)",
			spec.pool, len(r.conns), outstanding),
		fmt.Sprintf("window %.2fs: %d episodes completed (%d violations, %d overshoots), %d registrations timed",
			w.seconds(), len(w.samples), len(viol), len(over), len(regUS)))
	if q := highestPercentile(len(viol)); q > 0 {
		res.info = append(res.info, fmt.Sprintf("violation episodes: n=%d, highest percentile with ten samples beyond it p%g = %.1f us",
			len(viol), 100*q, percentile(viol, q)))
	}

	if !cfg.trace {
		// Timings are the good-side quartile of the window's blocks.
		bl := w.blocks()
		perBlock := "per block, episodes/s, violation p50 us and cpu us/episode:"
		for _, b := range bl {
			if len(b.violationUS) > 0 {
				perBlock += fmt.Sprintf(" %.0f/%.1f/%.1f", float64(b.episodes)/b.seconds,
					percentile(b.violationUS, 0.50), float64(b.cpu)/1e3/float64(b.episodes))
			}
		}
		res.info = append(res.info, perBlock)
		res.set("setup_s", median(setupSecs))
		res.set("adapt_p50_us", undisturbed(eachBlock(bl, func(b block) float64 { return percentile(b.violationUS, 0.50) }), true))
		res.set("adapt_p95_us", undisturbed(eachBlock(bl, func(b block) float64 { return percentile(b.violationUS, 0.95) }), true))
		res.set("adapt_per_s", undisturbed(eachBlock(bl, func(b block) float64 { return float64(b.episodes) / b.seconds }), false))
		res.set("cpu_us_per_episode", undisturbed(eachBlock(bl, func(b block) float64 { return float64(b.cpu) / 1e3 / float64(b.episodes) }), true))
		res.set("bytes_per_episode", float64(last.bytes-w.ticks[0].bytes)/episodes)
		res.set("register_p50_us", registerP50(regNs))
		if !supported(len(viol), 0.95) {
			res.info = append(res.info, fmt.Sprintf("adapt_p95_us has only %d samples: fewer than ten beyond it", len(viol)))
		}
		return nil
	}

	// Per-layer table: spans of the traced window, then counts.
	tw := windows[1]
	spans, kinds := joinEpisodes(r.conns, tw.samples)
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		switch s.name {
		case "instrument.alarm":
			byName[s.name] = append(byName[s.name], float64(self[i])/1e3)
		case "manager.remote":
			if kinds[s.episode] == kindViolation {
				byName[s.name] = append(byName[s.name], float64(s.end-s.start)/1e3)
			}
		default:
			byName[s.name] = append(byName[s.name], float64(s.end-s.start)/1e3)
		}
	}
	res.set("instrument.alarm_self_us", median(byName["instrument.alarm"]))
	res.set("msg.send_us", median(byName["msg.send"]))
	res.set("gen.sync_wait_p50_us", median(byName["gen.sync_wait"]))
	res.set("manager.remote_p50_us", median(byName["manager.remote"]))
	res.set("trace.spans", float64(len(spans)))
	if inbox := sortedCopy(toFloats(tw.inboxWaitsNs, 1e3)); len(inbox) > 0 {
		res.set("msg.inbox_wait_p50_us", percentile(inbox, 0.50))
		res.set("msg.inbox_wait_p95_us", percentile(inbox, 0.95))
	}
	if tviol, _ := latencies(tw.samples); len(tviol) > 0 && len(tw.samples) > 0 {
		base := percentile(viol, 0.50)
		res.set("trace.overhead_pct", 100*(percentile(tviol, 0.50)-base)/base)
	}
	for _, tail := range []struct {
		name string
		q    float64
	}{{"live.adapt_p99_us", 0.99}, {"live.adapt_p999_us", 0.999}} {
		if supported(len(viol), tail.q) {
			res.set(tail.name, percentile(viol, tail.q))
		}
	}
	if len(over) > 0 {
		res.set("live.reclaim_p50_us", percentile(over, 0.50))
	}

	res.set("instrument.notifies", float64(counts.notifies))
	res.set("instrument.suppressed", float64(counts.suppressed))
	res.set("msg.msgs_per_episode", float64(last.sent-w.ticks[0].sent)/episodes)
	res.set("msg.retries", float64(counts.netRetries))
	res.set("msg.reconnects", float64(counts.netReconnects))
	res.set("msg.send_failed", float64(counts.netSendFailed))
	res.set("msg.dropped", float64(counts.netDropped))
	res.set("msg.dropped_invalid", float64(counts.netDroppedInvalid))
	res.set("manager.violations", float64(counts.hmViolations))
	res.set("manager.overshoots", float64(counts.hmOvershoots))
	res.set("manager.adjustments", float64(counts.hmAdjustments))
	res.set("manager.escalations", float64(counts.hmEscalations))
	res.set("manager.rule_errors", float64(counts.hmRuleErrors+counts.dmRuleErrors))
	res.set("manager.tracked_procs", float64(r.trackedProcs()))
	res.set("manager.domain.alarms", float64(counts.dmAlarms))
	res.set("manager.domain.network_faults", float64(counts.dmNetworkFaults))
	res.set("manager.domain.pending_end", float64(counts.dmPending))
	if reports := counts.hmViolations + counts.hmOvershoots; reports > 0 {
		res.set("rules.firings_per_episode", float64(counts.hmFirings)/float64(reports))
	}
	res.set("runtime.adjustments", float64(r.completed.Load()))
	res.set("agent.cache_hits", float64(counts.agentHits))
	res.set("agent.cache_misses", float64(counts.agentMisses))
	res.set("telemetry.traces_open_end", float64(counts.mgrTracesOpen+counts.spokeTracesOpen))
	res.set("telemetry.traces_evicted", float64(counts.tracesEvicted))
	res.set("telemetry.log_evicted", float64(counts.logEvicted))

	k := len(regUS)
	if k > 1000 {
		k = 1000
	}
	inOrder := toFloats(r.regNs, 1e3)
	res.set("agent.register_first1k_p50_us", median(inOrder[:k]))
	res.set("agent.register_last1k_p50_us", median(inOrder[len(inOrder)-k:]))
	res.set("agent.register_p95_us", percentile(regUS, 0.95))

	res.set("proc.allocs_per_episode", float64(w.to.mallocs-w.from.mallocs)/episodes)
	res.set("proc.alloc_bytes_per_episode", float64(w.to.allocBytes-w.from.allocBytes)/episodes)
	res.set("proc.gc_cycles", float64(w.to.gcCycles-w.from.gcCycles))
	res.set("proc.gc_pause_ms", float64(w.to.gcPause-w.from.gcPause)/1e6)
	res.set("proc.goroutines_end", float64(runtime.NumGoroutine()))

	var timeouts int64
	var stall time.Duration
	minRevisit := time.Hour
	for _, c := range r.conns {
		timeouts += c.timeouts.Load()
		stall += c.stall
		if c.minRevisit < minRevisit {
			minRevisit = c.minRevisit
		}
	}
	res.set("gen.attempted", float64(res.attempted))
	res.set("gen.timeouts", float64(timeouts))
	res.set("gen.pacing_stall_ms", float64(stall)/1e6)
	if minRevisit < time.Hour {
		res.set("gen.pool_min_revisit_ms", float64(minRevisit)/1e6)
	}

	// What the outside view cannot split: the remote leg minus the layer
	// costs the probes can name on its blocking chain.
	v := res.values
	chain := v["msg.decode_ns.violation"]/1e3 + v["rules.host_violation_us"]
	if spec.escalate {
		chain = v["msg.decode_ns.violation"]/1e3 + v["rules.host_escalate_us"] + v["rules.domain_episode_us"]
		for _, k := range []string{"alarm", "query", "report"} {
			chain += (v["msg.encode_ns."+k] + v["msg.decode_ns."+k]) / 1e3
		}
	}
	res.set("manager.unattributed_us", v["manager.remote_p50_us"]-chain)

	path, err := writeTrace(cfg.outDir, spans, self)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	res.info = append(res.info, fmt.Sprintf("traced window %.2fs: %d episodes, %d spans; trace written to %s",
		tw.seconds(), len(kinds), len(spans), path))
	return nil
}
