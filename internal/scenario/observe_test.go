package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/telemetry"
)

// observeCfg is the single-host golden scenario with the compliance
// subsystem armed.
func observeCfg() Config {
	return Config{Seed: 7, ClientLoad: 5, Managed: true, Observe: true}
}

// observeRun executes an observe-enabled run and renders its compliance
// report (Markdown), the full flight-recorder dump (JSON), and the
// standard telemetry snapshot text.
func observeRun(t *testing.T, cfg Config) (report, timeline, std string) {
	t.Helper()
	sys := Build(cfg)
	sys.Run(30*time.Second, 2*time.Minute)

	var md bytes.Buffer
	if err := sys.Report("observe golden").WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	var tl bytes.Buffer
	if err := sys.Flight.Dump().WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sys.Metrics.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTraceTable(&b, sys.Tracer.Traces()); err != nil {
		t.Fatal(err)
	}
	return md.String(), tl.String(), b.String()
}

// TestObserveDeterminismGolden pins the observe-enabled run: two runs
// with the same seed must render byte-identical compliance reports and
// flight-recorder dumps, and the report must match its checked-in
// golden. Regenerate with GEN_GOLDEN=1 after an intentional change.
func TestObserveDeterminismGolden(t *testing.T) {
	rep1, tl1, _ := observeRun(t, observeCfg())
	rep2, tl2, _ := observeRun(t, observeCfg())
	if rep1 != rep2 {
		t.Fatalf("same seed produced different compliance reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", rep1, rep2)
	}
	if tl1 != tl2 {
		t.Fatal("same seed produced different flight-recorder dumps")
	}

	golden := "testdata/determinism_observe.golden"
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(rep1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != string(want) {
		t.Errorf("compliance report differs from %s (same seed, code change altered simulated behavior); rerun with GEN_GOLDEN=1 if intended", golden)
	}

	// The run under load actually exercises the subsystem: the policy
	// saw violations (compliance below 1), the loop miner consumed
	// completed episodes, and the recorder retained history.
	for _, wantStr := range []string{
		"# Soft-QoS compliance report", "NotifyQoSViolation",
		"## Control-loop stage latency", "## Flight recorder",
	} {
		if !strings.Contains(rep1, wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, rep1)
		}
	}
	if !strings.Contains(rep1, "frame_rate") {
		t.Error("report objective column missing the policy expression")
	}
	if strings.Contains(rep1, "| detect | 0 |") {
		t.Error("loop miner consumed no completed episodes")
	}
	if !strings.Contains(tl1, "loop.detect_ms") {
		t.Error("flight recorder did not retain the loop.* series")
	}
}

// TestObserveNeutrality proves arming the compliance subsystem does not
// change what the system under test does: the standard telemetry
// snapshot of an observe-enabled run equals the pre-existing single-host
// golden once the subsystem's own rows (the miner's loop.* histograms,
// the flight recorder's telemetry.timeline.* counter) are dropped.
// Sampling is read-only against the registry, and the miner only
// populates its own metrics.
func TestObserveNeutrality(t *testing.T) {
	_, _, std := observeRun(t, observeCfg())
	want, err := os.ReadFile("testdata/determinism_single-host.golden")
	if err != nil {
		t.Fatal(err)
	}
	if dropRows(std, "loop.", "telemetry.timeline.") != string(want) {
		t.Error("observe mode perturbed the simulation: snapshot (minus its own loop.* and telemetry.timeline.* rows) differs from the single-host golden")
	}
}
