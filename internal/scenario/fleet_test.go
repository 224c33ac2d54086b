package scenario

import (
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/rules"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

// fleetSnapshot runs a fleet config for d and renders the telemetry
// snapshot (plus the trace table when tracing is on) as one text blob.
func fleetSnapshot(t *testing.T, cfg FleetConfig, d time.Duration) (string, FleetResult) {
	t.Helper()
	sys := BuildFleet(cfg)
	res := sys.Run(d)
	var b strings.Builder
	if err := sys.Metrics.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if sys.Tracer != nil {
		if err := telemetry.WriteTraceTable(&b, sys.Tracer.Traces()); err != nil {
			t.Fatal(err)
		}
	}
	return b.String(), res
}

// TestFleetDeterminismGolden pins a small 3-tier fleet run — 60 hosts,
// 3 domains, tracing on — to a golden: the hierarchy (registration,
// batched uplinks, saturation probes, fan-out, rebalancing) must be a
// pure function of the seed, byte for byte. Regenerate with GEN_GOLDEN=1
// after an intentional behavior change.
func TestFleetDeterminismGolden(t *testing.T) {
	cfg := FleetConfig{
		Seed:         7,
		Hosts:        60,
		Domains:      3,
		ProcsPerHost: 4,
		SpikeProb:    0.10,
		Trace:        true,
	}
	a, resA := fleetSnapshot(t, cfg, 2*time.Minute)
	b, _ := fleetSnapshot(t, cfg, 2*time.Minute)
	if a != b {
		t.Fatalf("same seed produced different fleet telemetry:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	const golden = "testdata/determinism_fleet.golden"
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(a), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if a != string(want) {
		t.Errorf("fleet snapshot differs from %s (same seed, code change altered simulated behavior); rerun with GEN_GOLDEN=1 if intended", golden)
	}
	// The golden run must actually exercise the hierarchy end to end.
	if resA.AlarmsRaised == 0 || resA.Adaptations == 0 {
		t.Errorf("golden fleet run idle: alarms=%d adaptations=%d", resA.AlarmsRaised, resA.Adaptations)
	}
	if resA.Batches == 0 {
		t.Error("no alarm batches reached the region")
	}
	if resA.Probes == 0 || resA.FanoutQueries == 0 {
		t.Errorf("no downward fan-out: probes=%d fanoutQueries=%d", resA.Probes, resA.FanoutQueries)
	}
	if !strings.Contains(a, "[tier 2]") && !strings.Contains(a, "[tier 3]") {
		t.Error("trace table carries no tier markers")
	}
}

// federatedBlob runs a federated fleet for d and renders the federated
// JSON payload plus the full timeline dump (raw ring and rolled-up
// tiers) as one blob — the byte-exact surface the federated golden pins.
func federatedBlob(t *testing.T, cfg FleetConfig, d time.Duration) (string, int, *FleetSystem, FleetResult) {
	t.Helper()
	sys := BuildFleet(cfg)
	res := sys.Run(d)
	v, ok := sys.FederatedView()
	if !ok {
		t.Fatal("federated run has no federated view")
	}
	var b strings.Builder
	if err := export.WriteFederatedJSON(&b, export.BuildFederated(v)); err != nil {
		t.Fatal(err)
	}
	payloadLen := b.Len()
	if err := sys.Flight.Dump().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), payloadLen, sys, res
}

// TestFleetFederatedDeterminismGolden pins the federated telemetry
// plane end to end: hosts ship sketch-bearing summaries, domains merge
// and re-ship, the region reconstructs the fleet view, and the flight
// recorder rolls raw samples into 5m buckets — all of it a pure
// function of the seed, byte for byte. The 12-minute run guarantees
// completed 5m roll-up buckets; the 1h tier stays (deterministically)
// empty. Regenerate with GEN_GOLDEN=1 after intended behavior changes.
func TestFleetFederatedDeterminismGolden(t *testing.T) {
	cfg := FleetConfig{
		Seed:         7,
		Hosts:        60,
		Domains:      3,
		ProcsPerHost: 4,
		SpikeProb:    0.10,
		Trace:        true,
		Federate:     true,
	}
	a, payloadLen, sysA, resA := federatedBlob(t, cfg, 12*time.Minute)
	b, _, _, _ := federatedBlob(t, cfg, 12*time.Minute)
	if a != b {
		t.Fatal("same seed produced different federated telemetry")
	}
	const golden = "testdata/determinism_fleet_federated.golden"
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(a), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if a != string(want) {
		t.Errorf("federated blob differs from %s (same seed, code change altered simulated behavior); rerun with GEN_GOLDEN=1 if intended", golden)
	}

	// The run must actually exercise federation end to end.
	if resA.Summaries == 0 {
		t.Fatal("region ingested no telemetry summaries")
	}
	v, _ := sysA.FederatedView()
	if v.Hosts != uint64(cfg.Hosts) {
		t.Errorf("federated view covers %d hosts, want %d", v.Hosts, cfg.Hosts)
	}
	if len(v.Children) != cfg.Domains {
		t.Errorf("federated view has %d children, want %d domains", len(v.Children), cfg.Domains)
	}
	// The fleet sketch count must equal the per-host observation total:
	// sketch merges are exact, not approximate, in count and sum.
	var loadCount uint64
	for _, h := range v.Fleet.Histograms {
		if h.Name == "fleet.load" {
			loadCount = h.Count
		}
	}
	var sampled float64
	for _, c := range v.Fleet.Counters {
		if c.Name == "fleet.samples" {
			sampled = c.Value
		}
	}
	// Observations still sitting in an unflushed host window are not in
	// the region aggregate yet, so compare counter vs sketch — both ride
	// the same summaries and must agree exactly.
	if sampled == 0 || loadCount != uint64(sampled) {
		t.Errorf("fleet.load sketch count %d != fleet.samples counter %v", loadCount, sampled)
	}
	// Downsampling: the 5m tier has completed buckets, and each rolled-up
	// series stays within the raw ring's value envelope.
	dump := sysA.Flight.Dump()
	if len(dump.Rollups) != 2 {
		t.Fatalf("timeline has %d rollup tiers, want 2", len(dump.Rollups))
	}
	fiveMin := dump.Rollups[0]
	if fiveMin.Resolution != 5*time.Minute || len(fiveMin.Series) == 0 {
		t.Fatalf("5m tier: res=%v series=%d", fiveMin.Resolution, len(fiveMin.Series))
	}
	for _, ser := range fiveMin.Series {
		for _, p := range ser.Points {
			if p.At%(5*time.Minute) != 0 {
				t.Fatalf("5m bucket start %v not aligned", p.At)
			}
		}
	}
	if hour := dump.Rollups[1]; hour.Resolution != time.Hour || len(hour.Series) != 0 {
		t.Errorf("1h tier should be empty after 12m: res=%v series=%d", hour.Resolution, len(hour.Series))
	}

	// The federated payload is the bounded-size surface a 10k-host fleet
	// serves from aggregates alone; its size is a function of metric
	// names and domain count, so at any host count it stays far under
	// the fleet payload cap.
	if payloadLen > 256<<10 {
		t.Errorf("federated payload is %d bytes, want < 256 KiB", payloadLen)
	}
}

// TestFleetBatchingReducesUplinkMessages: every alarm the hosts raise
// reaches the region, in strictly fewer envelopes than one per alarm.
func TestFleetBatchingReducesUplinkMessages(t *testing.T) {
	_, res := fleetSnapshot(t, FleetConfig{Seed: 11, Hosts: 120, Domains: 2, SpikeProb: 0.15}, 2*time.Minute)

	if res.AlarmsRaised == 0 {
		t.Fatal("run raised no alarms")
	}
	if res.BatchedAlarms != res.AlarmsRaised {
		t.Errorf("region saw %d alarms, hosts raised %d", res.BatchedAlarms, res.AlarmsRaised)
	}
	if res.Batches >= res.AlarmsRaised {
		t.Errorf("batching did not coalesce: %d batches for %d alarms",
			res.Batches, res.AlarmsRaised)
	}
}

// TestFleetThresholdsMatchDomainRules: the load threshold lives twice —
// as the cpu-load-threshold fact of DefaultDomainRules and as
// manager.LoadThreshold, which the region's shed decision and the fleet
// hosts' alarms use. They must not drift apart: a host alarms exactly
// when its load is over the rules' threshold.
func TestFleetThresholdsMatchDomainRules(t *testing.T) {
	e := rules.NewEngine()
	if err := e.LoadRules(manager.DefaultDomainRules); err != nil {
		t.Fatal(err)
	}
	facts := e.FactsMatching(rules.F("cpu-load-threshold", "?")...)
	if len(facts) != 1 || facts[0].At(1).Kind != rules.NumberKind {
		t.Fatalf("DefaultDomainRules cpu-load-threshold facts = %v, want one number", facts)
	}
	threshold := facts[0].At(1).Num
	if threshold != manager.LoadThreshold {
		t.Fatalf("rules threshold %v != manager.LoadThreshold %v", threshold, manager.LoadThreshold)
	}

	// Checked after every event: an alarm is answered within milliseconds.
	sys := BuildFleet(FleetConfig{Seed: 7, Hosts: 60, Domains: 3, SpikeProb: 0.10})
	sys.Start()
	alarmed := 0
	for end := sys.Sim.Now() + sim.Time(time.Minute); sys.Sim.Now() < end && sys.Sim.Step(); {
		for _, h := range sys.hosts {
			if h.alarmed != (h.load >= threshold) {
				t.Fatalf("%s at load %.2f: alarmed=%v against the rules' threshold %v",
					h.name, h.load, h.alarmed, threshold)
			}
			if h.alarmed {
				alarmed++
			}
		}
	}
	if alarmed == 0 {
		t.Fatal("no host alarmed: the check saw only calm hosts")
	}
}

// TestFleetSmoke is the bounded-wall-clock gate `make fleet-smoke` runs
// in CI: a 1000-host, 10-domain fleet simulates two minutes of virtual
// time, every tier stays live, detection→adaptation completes with a
// bounded p99, and the region holds no per-host state.
func TestFleetSmoke(t *testing.T) {
	cfg := FleetConfig{Seed: 3, Hosts: 1000, ProcsPerHost: 10}
	sys := BuildFleet(cfg)
	res := sys.Run(2 * time.Minute)

	if got := sys.Region.Domains(); got != 10 {
		t.Errorf("region sees %d domains, want 10", got)
	}
	for _, fd := range sys.Domains {
		if fd.dm.HostCount() != 100 {
			t.Errorf("%s holds %d hosts, want 100", fd.name, fd.dm.HostCount())
		}
	}
	if res.AlarmsRaised == 0 {
		t.Fatal("no spikes in a 1000-host fleet over 2 minutes")
	}
	// Detection→adaptation must complete for (nearly) every spike; the
	// tail may still be in flight at cutoff.
	if res.Adapted < res.AlarmsRaised*9/10 {
		t.Errorf("only %d of %d spikes adapted", res.Adapted, res.AlarmsRaised)
	}
	// The local control loop is a handful of bus hops: detect→adapt p99
	// must stay well under one sample period.
	if res.DetectAdaptP99 <= 0 || res.DetectAdaptP99 > time.Second {
		t.Errorf("detect→adapt p99 = %v, want (0, 1s]", res.DetectAdaptP99)
	}
	if res.BatchedAlarms != res.AlarmsRaised {
		t.Errorf("region alarm accounting: %d batched vs %d raised",
			res.BatchedAlarms, res.AlarmsRaised)
	}
}

// TestFleetRoundRobinPlacement: hosts deal across domains evenly even
// when the counts do not divide.
func TestFleetRoundRobinPlacement(t *testing.T) {
	sys := BuildFleet(FleetConfig{Hosts: 10, Domains: 3})
	counts := make([]int, 0, 3)
	total := 0
	for _, fd := range sys.Domains {
		counts = append(counts, fd.hosts)
		total += fd.hosts
	}
	if total != 10 {
		t.Fatalf("placed %d hosts, want 10 (%v)", total, counts)
	}
	for _, n := range counts {
		if n < 3 || n > 4 {
			t.Fatalf("unbalanced placement %v", counts)
		}
	}
}

// TestFleetPolicyDistribution: with the policy plane armed, every hub
// generation is relayed region → domains → per-domain policy agents,
// every agent cache converges on the hub's final generation, and the
// relay counts match the hierarchy's exact fan-out.
func TestFleetPolicyDistribution(t *testing.T) {
	cfg := FleetConfig{Seed: 5, Hosts: 300, Domains: 3, PolicyGens: 3,
		PolicyEvery: 20 * time.Second}
	sys := BuildFleet(cfg)
	res := sys.Run(2 * time.Minute)

	if res.PolicyGeneration != 3 {
		t.Fatalf("hub generation = %d, want 3", res.PolicyGeneration)
	}
	if res.PolicyConverged != 3 {
		t.Errorf("%d of 3 domain agents converged on generation %d",
			res.PolicyConverged, res.PolicyGeneration)
	}
	// Fan-out accounting: the hub notifies one subscriber (the region)
	// per generation; the region relays each to 3 domains; each domain
	// to its one agent.
	if res.PolicyDeltas != 3 {
		t.Errorf("hub deltas sent = %d, want 3", res.PolicyDeltas)
	}
	if want := uint64(3*3 + 3*3); res.PolicyRelays != want {
		t.Errorf("delta relays = %d, want %d (region 9 + domains 9)", res.PolicyRelays, want)
	}
	// Agents see generation 1 as a brand-new cache (one refresh pull),
	// then chain 2 and 3 without gaps.
	stats := sys.policyAgents[0].CacheStats()
	if stats.Applied != 3 || stats.Refreshes != 1 || stats.Stale != 0 {
		t.Errorf("agent cache stats = %+v, want 3 applied / 1 refresh / 0 stale", stats)
	}
	// The plane must not disturb the ordinary control loop.
	if res.AlarmsRaised == 0 || res.Adapted < res.AlarmsRaised*9/10 {
		t.Errorf("control loop degraded: %d adapted of %d raised", res.Adapted, res.AlarmsRaised)
	}
}

// TestFleetPolicyPlaneOffByDefault: a zero PolicyGens wires nothing —
// no hub, no agents, no repo.hub metric names in the snapshot.
func TestFleetPolicyPlaneOffByDefault(t *testing.T) {
	sys := BuildFleet(FleetConfig{Seed: 3, Hosts: 100})
	sys.Run(30 * time.Second)
	if sys.Hub != nil || len(sys.policyAgents) != 0 {
		t.Fatal("policy plane wired without PolicyGens")
	}
	for _, c := range sys.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "repo.hub.") || strings.HasPrefix(c.Name, "agent.") {
			t.Errorf("unexpected policy-plane metric %q in a plain run", c.Name)
		}
	}
}
