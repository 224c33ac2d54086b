package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	fleetHosts   = 10000
	quickHosts   = 200
	fleetVirtual = 2 * time.Minute
	// bringUp is the virtual time by which every host has registered
	// with its domain (registrations are staggered over the first
	// 1.002 s).
	bringUp = 1100 * time.Millisecond
)

// fleetIter is one BuildFleet + 2 virtual minutes, stepped one virtual
// second at a time so the simulator's step time has a distribution.
type fleetIter struct {
	build   time.Duration // BuildFleet
	bringUp time.Duration // BuildFleet + Start + the first 1.1 virtual seconds
	total   time.Duration
	cpu     time.Duration
	slices  []int64 // wall ns of each full virtual second after bring-up
	out     fleetOutcome
}

// fleetIteration runs one iteration. With spans non-nil it records the
// boundaries the benchmark owns: the iteration, BuildFleet, Run, and
// each virtual second under Run.
func fleetIteration(seed int64, hosts, episode int, clock func() time.Duration, spans *[]span) fleetIter {
	var it fleetIter
	cpu0 := cpuTime()
	t0 := time.Now()
	c0 := clock()
	f := buildFleet(seed, hosts)
	it.build = time.Since(t0)
	runAt := clock()
	root := -1
	if spans != nil {
		root = len(*spans)
		*spans = append(*spans,
			span{name: "fleet.iteration", episode: episode, parent: -1, start: int64(c0)},
			span{name: "scenario.BuildFleet", episode: episode, parent: root, start: int64(c0), end: int64(runAt)},
			span{name: "scenario.Run", episode: episode, parent: root, start: int64(runAt)})
	}
	f.start()
	f.advance(bringUp)
	it.bringUp = time.Since(t0)
	for at := bringUp; at < fleetVirtual; at += time.Second {
		step := time.Second
		if fleetVirtual-at < step {
			step = fleetVirtual - at
		}
		s0 := clock()
		f.advance(step)
		s1 := clock()
		if step == time.Second {
			it.slices = append(it.slices, int64(s1-s0))
		}
		if spans != nil {
			*spans = append(*spans, span{name: "sim.second", episode: episode, parent: root + 2, start: int64(s0), end: int64(s1)})
		}
	}
	it.total = time.Since(t0)
	it.cpu = cpuTime() - cpu0
	if spans != nil {
		end := int64(clock())
		(*spans)[root].end, (*spans)[root+2].end = end, end
	}
	it.out = f.outcome()
	return it
}

// fleetGates are the `qosfleet -check` conditions on one iteration.
func fleetGates(res *results, o fleetOutcome) {
	if o.alarms == 0 {
		res.fail(1, "fleet raised no alarm")
	}
	if o.adapted < o.alarms*9/10 {
		res.fail(int(o.alarms-o.adapted), "loop incomplete: %d of %d spikes adapted", o.adapted, o.alarms)
	}
	if o.batchedAlarms != o.alarms {
		res.fail(1, "region alarm accounting: %d batched vs %d raised", o.batchedAlarms, o.alarms)
	}
	if o.policyConverged != o.domains {
		res.fail(o.domains-o.policyConverged, "%d of %d policy caches converged", o.policyConverged, o.domains)
	}
}

// runFleet is the fleet_sim workload.
func runFleet(cfg runConfig, res *results) error {
	hosts, setups, warmups := fleetHosts, 9, 1
	if cfg.quick {
		hosts, warmups = quickHosts, 0
	}
	if cfg.trace || cfg.quick {
		setups = 1
	}
	// Set-up is the Figure 3 gate: the paper's outcome has to hold
	// before any speed of the simulator is worth reporting.
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		if err := figure3Gate(cfg.seed); err != nil {
			res.fail(1, "%v", err)
		}
		setupSecs = append(setupSecs, time.Since(t).Seconds())
		res.pass.sample()
	}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	for i := 0; i < warmups; i++ {
		fleetIteration(cfg.seed, hosts, 0, clock, nil)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	var heap0 uint64
	if cfg.trace {
		heap0 = heapInUse()
	}
	from := takeProcSnapshot()
	var iters []fleetIter
	for begin := time.Now(); len(iters) == 0 || time.Since(begin) < budget; {
		iters = append(iters, fleetIteration(cfg.seed, hosts, len(iters), clock, nil))
	}
	to := takeProcSnapshot()
	res.pass.sample()

	first := iters[0].out
	var wall time.Duration
	var adaptations, busBytes, alarms uint64
	var builds, runs, totals, bringUps, cpus []float64
	for _, it := range iters {
		fleetGates(res, it.out)
		if it.out.events != first.events || it.out.busMessages != first.busMessages || it.out.busBytes != first.busBytes {
			res.fail(1, "iterations of one seed differ: events %d/%d, messages %d/%d, bytes %d/%d",
				it.out.events, first.events, it.out.busMessages, first.busMessages, it.out.busBytes, first.busBytes)
		}
		wall += it.total
		adaptations += it.out.adaptations
		busBytes += it.out.busBytes
		alarms += it.out.alarms
		builds = append(builds, it.build.Seconds())
		runs = append(runs, (it.total - it.build).Seconds())
		totals = append(totals, it.total.Seconds())
		bringUps = append(bringUps, it.bringUp.Seconds())
		cpus = append(cpus, it.cpu.Seconds())
	}
	// Every iteration of a seed does the same work step by step, so each
	// virtual second is timed once per iteration and takes the undisturbed
	// one of those timings.
	stepUS := make([]float64, len(iters[0].slices))
	for j := range stepUS {
		col := make([]float64, len(iters))
		for i, it := range iters {
			col[i] = float64(it.slices[j]) / 1e3
		}
		stepUS[j] = undisturbed(col, true)
	}
	stepUS = sortedCopy(stepUS)
	res.attempted = int(alarms)
	if first.adaptations == 0 || len(stepUS) == 0 {
		return fmt.Errorf("fleet completed no episode")
	}
	res.info = append(res.info,
		fmt.Sprintf("%d hosts x 10 processes, %v virtual per iteration, single-threaded on the sim bus", hosts, fleetVirtual),
		fmt.Sprintf("%d timed iterations in %.2fs wall, %d virtual seconds timed, %d episodes", len(iters), wall.Seconds(), len(iters)*len(stepUS), adaptations),
		fmt.Sprintf("iteration wall s: %.3f", totals))

	if !cfg.trace {
		res.set("setup_s", median(setupSecs))
		res.set("adapt_p50_us", percentile(stepUS, 0.50))
		res.set("adapt_p95_us", percentile(stepUS, 0.95))
		res.set("adapt_per_s", float64(first.adaptations)/undisturbed(totals, true))
		res.set("cpu_us_per_episode", undisturbed(cpus, true)*1e6/float64(first.adaptations))
		res.set("bytes_per_episode", float64(busBytes)/float64(adaptations))
		res.set("register_p50_us", undisturbed(bringUps, true)*1e6/float64(hosts))
		return nil
	}

	// Traced pass: three more iterations with the benchmark's spans on.
	var spans []span
	var traced []float64
	for i := 0; i < 3; i++ {
		it := fleetIteration(cfg.seed, hosts, i, clock, &spans)
		fleetGates(res, it.out)
		traced = append(traced, it.total.Seconds())
	}
	heapPerHost := 0.0
	{
		// One system held live across a collection: what a host costs.
		f := buildFleet(cfg.seed, hosts)
		f.start()
		f.advance(fleetVirtual)
		if h := heapInUse(); h > heap0 {
			heapPerHost = float64(h-heap0) / float64(hosts)
		}
		runtime.KeepAlive(f)
	}

	o := first
	res.set("scenario.fleet_build_s", median(builds))
	res.set("scenario.fleet_run_s", median(runs))
	res.set("sim.events", float64(o.events))
	res.set("sim.events_per_s", float64(o.events)/median(totals))
	res.set("sim.heap_per_host_bytes", heapPerHost)
	res.set("sim.adapt_p99_ms", float64(o.adaptP99)/1e6)
	res.set("sim.bytes_per_host", float64(o.busBytes)/float64(o.hosts))
	res.set("sim.adapted_share", float64(o.adaptations)/float64(o.alarms))
	res.set("msg.bus_messages", float64(o.busMessages))
	res.set("msg.bus_bytes", float64(o.busBytes))
	res.set("msg.msgs_per_episode", float64(o.busMessages)/float64(o.adaptations))
	res.set("manager.tier.batches", float64(o.batches))
	res.set("manager.tier.batched_alarms", float64(o.batchedAlarms))
	res.set("manager.tier.probes", float64(o.probes))
	res.set("manager.tier.fanout_queries", float64(o.fanoutQueries))
	res.set("manager.tier.rebalances", float64(o.rebalances))
	res.set("manager.tier.policy_relays", float64(o.policyRelays))
	res.set("telemetry.fed_summaries", float64(o.summaries))
	res.set("telemetry.log_evicted", float64(o.logEvicted))
	res.set("proc.allocs_per_episode", float64(to.mallocs-from.mallocs)/float64(adaptations))
	res.set("proc.alloc_bytes_per_episode", float64(to.allocBytes-from.allocBytes)/float64(adaptations))
	res.set("proc.gc_cycles", float64(to.gcCycles-from.gcCycles))
	res.set("proc.gc_pause_ms", float64(to.gcPause-from.gcPause)/1e6)
	res.set("proc.goroutines_end", float64(runtime.NumGoroutine()))
	res.set("gen.attempted", float64(res.attempted))
	res.set("trace.overhead_pct", 100*(median(traced)-median(totals))/median(totals))
	res.set("trace.spans", float64(len(spans)))

	roster := liveSpecs["live_local"].pool
	if cfg.quick {
		roster = quickPool
	}
	runProbes(res, roster, cfg.probeTime())

	path, err := writeTrace(cfg.outDir, spans, selfTimes(spans))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	res.info = append(res.info, fmt.Sprintf("traced pass: 3 iterations, %d spans; trace written to %s", len(spans), path))
	return nil
}
