package scenario

import (
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/telemetry/eventlog"
)

// eventLogRun builds cfg with the event log armed, runs warmup+measure,
// and renders the full ring as NDJSON — the qosd -report artifact.
func eventLogRun(t *testing.T, cfg Config, warmup, measure time.Duration) (*System, string) {
	t.Helper()
	sys := Build(cfg)
	sys.Run(warmup, measure)
	if sys.Log == nil {
		t.Fatal("EventLog config did not arm a logger")
	}
	var b strings.Builder
	if err := sys.Log.WriteNDJSON(&b, eventlog.Query{}); err != nil {
		t.Fatal(err)
	}
	return sys, b.String()
}

// TestDeterminismEventLogGolden extends the determinism guarantee to the
// third pillar: under the seeded chaos schedule the structured event log
// — fault injections, transport retries, the crash-window eviction and
// the re-adoption after it — renders byte-identical NDJSON every run,
// pinned by its own golden. Regenerate with GEN_GOLDEN=1 after an
// intentional behavior change.
func TestDeterminismEventLogGolden(t *testing.T) {
	cfg := Config{Seed: 7, ClientLoad: 5, Managed: true,
		Faults: faultsGoldenPlan(), EventLog: true}
	sys, a := eventLogRun(t, cfg, 30*time.Second, 2*time.Minute)
	_, b := eventLogRun(t, cfg, 30*time.Second, 2*time.Minute)
	if a != b {
		t.Fatalf("same seed produced different event logs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	golden := "testdata/determinism_eventlog.golden"
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
		t.Errorf("event log differs from %s (same seed, code change altered logged decisions); rerun with GEN_GOLDEN=1 if intended", golden)
	}

	// The golden run must actually exercise the interesting paths: fault
	// injections recorded with their rule names, and the crash window's
	// eviction visible as a control-plane decision.
	if !strings.Contains(a, `"component":"faults"`) {
		t.Error("no fault-injection records in the golden run")
	}
	if !strings.Contains(a, `"chaos-drop"`) {
		t.Error("fault records do not carry rule provenance")
	}
	if !strings.Contains(a, "evicted") && !strings.Contains(a, "readopted") {
		t.Error("crash window left no eviction or re-adoption record")
	}

	// Trace correlation: at least one record's trace ID must resolve to a
	// violation trace the tracer holds — the link that turns a log line
	// into a causal tree.
	ids := make(map[string]bool)
	for _, tr := range sys.Tracer.Traces() {
		ids[tr.ID] = true
	}
	correlated := 0
	for _, rec := range sys.Log.Records(eventlog.Query{}) {
		if rec.Trace != "" {
			if !ids[rec.Trace] {
				t.Fatalf("record %d carries trace %q not present in the tracer", rec.Seq, rec.Trace)
			}
			correlated++
		}
	}
	if correlated == 0 {
		t.Error("no record carries a trace context")
	}
}

// TestEventLogObservabilityNeutral proves the event log is free when
// disabled and invisible when armed: every pinned scenario re-run with
// EventLog on renders a telemetry snapshot byte-identical to its
// checked-in golden (recorded with the log off) once the ring's own
// self-accounting rows (telemetry.log.*) are dropped. Recording events
// therefore perturbs neither scheduling nor any other metric.
func TestEventLogObservabilityNeutral(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.EventLog = true
			got, _ := snapshotRun(t, cfg, 30*time.Second, 2*time.Minute)
			want, err := os.ReadFile("testdata/determinism_" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if dropRows(got, "telemetry.log.") != string(want) {
				t.Error("arming the event log changed the telemetry snapshot; the log is not observability-neutral")
			}
		})
	}
}

// TestEventLogSamplingBoundsVolume: with LogEvery armed, sub-Warn
// chatter is rate-sampled (seeded, so still deterministic) while every
// Warn+ record survives — the ring cannot be washed by a chatty code.
func TestEventLogSamplingBoundsVolume(t *testing.T) {
	base := Config{Seed: 7, ClientLoad: 5, Managed: true,
		Faults: faultsGoldenPlan(), EventLog: true}
	sampled := base
	sampled.LogEvery = 4
	_, full := eventLogRun(t, base, 30*time.Second, 2*time.Minute)
	sysA, a := eventLogRun(t, sampled, 30*time.Second, 2*time.Minute)
	_, b := eventLogRun(t, sampled, 30*time.Second, 2*time.Minute)
	if a != b {
		t.Fatal("seeded sampling is not deterministic across runs")
	}
	if sysA.Log.SampledOut() == 0 {
		t.Error("LogEvery=4 sampled nothing out")
	}
	countWarnPlus := func(s string) int {
		return strings.Count(s, `"level":"warn"`) + strings.Count(s, `"level":"error"`)
	}
	if got, want := countWarnPlus(a), countWarnPlus(full); got != want {
		t.Errorf("sampling dropped Warn+ records: %d with sampling, %d without", got, want)
	}
}
