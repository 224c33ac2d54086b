// Command qosfleet runs the three-tier fleet simulator: N lightweight
// host managers under M domain managers under one region manager, all
// on the deterministic virtual clock.
//
// Usage:
//
//	qosfleet [-hosts 10000] [-procs 10] [-domains 0 (auto)]
//	         [-duration 2m] [-window 2s] [-seed 1]
//	         [-federate] [-telemetry-window 10s]
//	         [-policy-gens 0] [-policy-every 30s]
//	         [-http addr] [-host-budget 0 (auto)] [-payload-cap 262144]
//	         [-check]
//
// The summary reports control-loop throughput (alarms, batches, probes,
// rebalances), the detect→adapt latency quantiles, bus traffic, and the
// process's heap growth per simulated host. With -federate each host
// additionally ships mergeable telemetry summaries up the hierarchy and
// the region reconstructs the fleet view from aggregates alone; -http
// then serves /metrics, /debug/qos and the dashboard from that view
// after the run. With -policy-gens N the run additionally pushes N
// policy generations through the repository hub mid-run — relayed
// region → domains → per-domain policy agents — and reports the delta
// fan-out plus how many agent caches converged on the hub's final
// generation. With -check the run becomes a smoke gate: it exits
// non-zero unless the fleet assembled fully, the loop closed for ≥90%
// of spikes, p99 detect→adapt stayed under 1s, heap per host stayed
// within -host-budget, and (federated) the debug surface serves bounded
// payloads from the aggregates.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"softqos/internal/scenario"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

var (
	hosts    = flag.Int("hosts", 10000, "fleet size")
	procs    = flag.Int("procs", 10, "managed processes per host")
	domains  = flag.Int("domains", 0, "domain managers (0 = one per 100 hosts)")
	duration = flag.Duration("duration", 2*time.Minute, "virtual time to simulate")
	window   = flag.Duration("window", 2*time.Second, "alarm coalescing window on domain uplinks")
	seed     = flag.Int64("seed", 1, "simulation seed")
	check    = flag.Bool("check", false, "smoke-gate mode: exit non-zero on an unhealthy run")

	policyGens  = flag.Int("policy-gens", 0, "announce this many policy generations mid-run through the repository hub (relayed region -> domains -> policy agents; 0 disables)")
	policyEvery = flag.Duration("policy-every", 30*time.Second, "virtual-time spacing between policy generations")

	eventLog = flag.Bool("eventlog", false, "arm the structured event log: one bounded ring shared fleet-wide, host records folded into the federated summaries as per-component error-class counters")

	federate  = flag.Bool("federate", false, "arm the federated telemetry plane (host summaries -> domain -> region)")
	telWindow = flag.Duration("telemetry-window", 10*time.Second, "federated summary flush window")
	httpAddr  = flag.String("http", "", "serve the post-run observability surface on this address and block (federated runs serve the fleet view)")
	budget    = flag.Float64("host-budget", 0, "heap bytes per host -check tolerates (0 = auto: 2048 plain, 6144 federated)")
	capBytes  = flag.Int("payload-cap", 256<<10, "max bytes -check tolerates for one federated debug payload")
)

func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func main() {
	flag.Parse()
	cfg := scenario.FleetConfig{
		Seed:            *seed,
		Hosts:           *hosts,
		ProcsPerHost:    *procs,
		Domains:         *domains,
		BatchWindow:     *window,
		Federate:        *federate,
		TelemetryWindow: *telWindow,
		EventLog:        *eventLog,
		PolicyGens:      *policyGens,
		PolicyEvery:     *policyEvery,
	}

	before := heapBytes()
	start := time.Now()
	sys := scenario.BuildFleet(cfg)
	res := sys.Run(*duration)
	wall := time.Since(start)
	after := heapBytes()

	perHost := float64(after-before) / float64(sys.HostCount())
	fmt.Printf("fleet: %d hosts x %d procs, %d domains, seed %d\n",
		sys.HostCount(), cfg.ProcsPerHost, len(sys.Domains), res.Cfg.Seed)
	fmt.Printf("uplink: batched (window %v)\n", res.Cfg.BatchWindow)
	if *federate {
		fmt.Printf("telemetry: federated (window %v)\n", cfg.TelemetryWindow)
	}
	fmt.Println()
	fmt.Printf("%-28s %12v\n", "virtual time", res.SimTime)
	fmt.Printf("%-28s %12v\n", "wall time", wall.Round(time.Millisecond))
	fmt.Printf("%-28s %12d\n", "events fired", res.Events)
	fmt.Printf("%-28s %12d\n", "alarms raised", res.AlarmsRaised)
	fmt.Printf("%-28s %12d\n", "adaptations (boost_cpu)", res.Adaptations)
	fmt.Printf("%-28s %12d\n", "region batches", res.Batches)
	fmt.Printf("%-28s %12d\n", "alarms in batches", res.BatchedAlarms)
	fmt.Printf("%-28s %12d\n", "region probes", res.Probes)
	fmt.Printf("%-28s %12d\n", "fan-out sub-queries", res.FanoutQueries)
	fmt.Printf("%-28s %12d\n", "rebalances (shed_load)", res.Rebalances)
	fmt.Printf("%-28s %12d\n", "sheds applied", res.Sheds)
	fmt.Printf("%-28s %12v\n", "detect→adapt p50", res.DetectAdaptP50)
	fmt.Printf("%-28s %12v\n", "detect→adapt p99", res.DetectAdaptP99)
	fmt.Printf("%-28s %12d\n", "bus messages", res.BusMessages)
	fmt.Printf("%-28s %12d\n", "bus bytes", res.BusBytes)
	if *federate {
		fmt.Printf("%-28s %12d\n", "telemetry summaries", res.Summaries)
	}
	if *policyGens > 0 {
		fmt.Printf("%-28s %12d\n", "policy generations", res.PolicyGeneration)
		fmt.Printf("%-28s %12d\n", "policy deltas sent", res.PolicyDeltas)
		fmt.Printf("%-28s %12d\n", "policy delta relays", res.PolicyRelays)
		fmt.Printf("%-28s %6d of %d\n", "policy agents converged", res.PolicyConverged, len(sys.Domains))
	}
	fmt.Printf("%-28s %12.0f\n", "heap bytes per host", perHost)

	if *check {
		runCheck(cfg, sys, res, perHost)
	}

	if *httpAddr != "" {
		serveForever(sys)
	}
}

// fleetView adapts the system's federated accessor for the export
// handler (zero view when federation is off, though callers gate on it).
func fleetView(sys *scenario.FleetSystem) func() telemetry.FederatedView {
	return func() telemetry.FederatedView {
		v, _ := sys.FederatedView()
		return v
	}
}

func serveForever(sys *scenario.FleetSystem) {
	var opts []export.Option
	if _, ok := sys.FederatedView(); ok {
		opts = append(opts, export.WithFederation(fleetView(sys)))
	}
	if sys.Flight != nil {
		opts = append(opts, export.WithTimeline(sys.Flight))
	}
	if sys.Log != nil {
		opts = append(opts, export.WithEventLog(sys.Log))
	}
	srv, err := export.Serve(*httpAddr, sys.Metrics, sys.Tracer, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosfleet: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nserving observability surface on http://%s (ctrl-c to stop)\n", srv.Addr())
	select {}
}

func runCheck(cfg scenario.FleetConfig, sys *scenario.FleetSystem, res scenario.FleetResult, perHost float64) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fleet-smoke: "+format+"\n", args...)
		os.Exit(1)
	}
	wantDomains := cfg.Domains
	if wantDomains <= 0 {
		wantDomains = (cfg.Hosts + 99) / 100
	}
	if got := sys.Region.Domains(); got != wantDomains {
		fail("region sees %d domains, want %d", got, wantDomains)
	}
	if res.AlarmsRaised == 0 {
		fail("no load spikes over %v", res.SimTime)
	}
	if res.Adapted < res.AlarmsRaised*9/10 {
		fail("loop incomplete: %d of %d spikes adapted", res.Adapted, res.AlarmsRaised)
	}
	if res.DetectAdaptP99 <= 0 || res.DetectAdaptP99 > time.Second {
		fail("detect→adapt p99 = %v, want (0, 1s]", res.DetectAdaptP99)
	}
	if res.BatchedAlarms != res.AlarmsRaised {
		fail("region alarm accounting: %d batched vs %d raised", res.BatchedAlarms, res.AlarmsRaised)
	}

	// Heap budget: the reason a 10k-host fleet fits in one process. The
	// federated default is higher because every host carries sketches and
	// a summary exporter in addition to its manager state.
	hostBudget := *budget
	if hostBudget <= 0 {
		hostBudget = 2048
		if cfg.Federate {
			hostBudget = 6144
		}
	}
	if perHost > hostBudget {
		fail("heap %.0f bytes per host, budget %.0f", perHost, hostBudget)
	}

	if cfg.Federate {
		checkFederated(sys, res, fail)
	}
	if cfg.PolicyGens > 0 {
		if res.PolicyGeneration != uint64(cfg.PolicyGens) {
			fail("policy plane: hub generation %d after %d pushes", res.PolicyGeneration, cfg.PolicyGens)
		}
		if res.PolicyConverged != len(sys.Domains) {
			fail("policy plane: %d of %d domain agents converged on generation %d",
				res.PolicyConverged, len(sys.Domains), res.PolicyGeneration)
		}
	}
	fmt.Println("\nfleet-smoke: ok")
}

// checkFederated asserts the federated debug surface works end to end:
// the region ingested summaries, and each endpoint serves a 200 with a
// body bounded by -payload-cap — from aggregates alone, so the bound
// holds at any host count.
func checkFederated(sys *scenario.FleetSystem, res scenario.FleetResult, fail func(string, ...any)) {
	if res.Summaries == 0 {
		fail("federated run: region ingested no telemetry summaries")
	}
	v, ok := sys.FederatedView()
	if !ok {
		fail("federated run has no fleet view")
	}
	if v.Hosts != uint64(sys.HostCount()) {
		fail("fleet view covers %d hosts, want %d", v.Hosts, sys.HostCount())
	}
	opts := []export.Option{export.WithFederation(fleetView(sys))}
	paths := []string{"/metrics", "/debug/qos", "/debug/qos/dashboard"}
	if sys.Log != nil {
		// The event-log surface must stay bounded too: the handler caps
		// the record count, so the body size holds at any fleet size.
		opts = append(opts, export.WithEventLog(sys.Log))
		paths = append(paths, "/debug/qos/logs")
	}
	srv, err := export.Serve("127.0.0.1:0", sys.Metrics, sys.Tracer, opts...)
	if err != nil {
		fail("serve: %v", err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range paths {
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			fail("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fail("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			fail("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 || len(body) > *capBytes {
			fail("GET %s: %d-byte payload, want (0, %d]", path, len(body), *capBytes)
		}
		fmt.Printf("federated %-22s %8d bytes\n", path, len(body))
	}
}
