package scenario

import (
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/telemetry"
	"softqos/internal/video"
)

// snapshotRun builds cfg, runs warmup+measure, and renders the telemetry
// snapshot plus trace table as one text blob.
func snapshotRun(t *testing.T, cfg Config, warmup, measure time.Duration) (string, []*telemetry.Trace) {
	t.Helper()
	sys := Build(cfg)
	sys.Run(warmup, measure)
	var b strings.Builder
	if err := sys.Metrics.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	traces := sys.Tracer.Traces()
	if err := telemetry.WriteTraceTable(&b, traces); err != nil {
		t.Fatal(err)
	}
	return b.String(), traces
}

// dropRows removes the snapshot rows whose metric name starts with one
// of the prefixes: the neutrality tests compare an observability
// subsystem's run against a golden recorded without it, minus the rows
// the subsystem itself registers.
func dropRows(snapshot string, prefixes ...string) string {
	var kept []string
lines:
	for _, ln := range strings.Split(snapshot, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(ln, p) {
				continue lines
			}
		}
		kept = append(kept, ln)
	}
	return strings.Join(kept, "\n")
}

// goldenCases are the scenarios pinned by testdata goldens. The
// overload-adapt case exercises every refactored runtime seam at once:
// the transport (escalation + directives), the resource managers acting
// through ProcHandle, and the coordinator's actuate path.
var goldenCases = []struct {
	name string
	cfg  Config
	// wantRecovery: the run must contain at least one violation trace
	// that resolved (false for overload-adapt, which degrades the stream
	// rather than restoring the original expectation).
	wantRecovery bool
}{
	{"single-host", Config{Seed: 7, ClientLoad: 5, Managed: true}, true},
	{"cross-host", Config{Seed: 7, Managed: true, ServerLoad: 4,
		Stream: video.StreamConfig{ServerCost: 34 * time.Millisecond,
			DecodeCost: 10 * time.Millisecond}}, true},
	{"overload-adapt", Config{Seed: 7, Managed: true, RTLoad: 0.65,
		HostRules: manager.OverloadHostRules}, false},
}

// TestDeterminismGolden runs each scenario twice with the same seed and
// requires byte-identical telemetry output: the simulation — including
// every counter, histogram quantile and trace span — must be a pure
// function of the seed. Each run must also match the checked-in golden
// file, so refactors of the manager stack (e.g. the runtime-seam
// abstraction) provably leave simulated behavior untouched. Regenerate
// with GEN_GOLDEN=1 after an intentional behavior change.
func TestDeterminismGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			a, traces := snapshotRun(t, tc.cfg, 30*time.Second, 2*time.Minute)
			b, _ := snapshotRun(t, tc.cfg, 30*time.Second, 2*time.Minute)
			if a != b {
				t.Fatalf("same seed produced different telemetry:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			golden := "testdata/determinism_" + tc.name + ".golden"
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
				t.Errorf("telemetry snapshot differs from %s (same seed, code change altered simulated behavior); rerun with GEN_GOLDEN=1 if intended", golden)
			}
			recovered := 0
			for _, tr := range traces {
				if _, ok := tr.TimeToRecovery(); ok {
					recovered++
				}
			}
			if tc.wantRecovery && recovered == 0 {
				t.Errorf("no recovered violation trace in %d traces", len(traces))
			}
			if !strings.Contains(a, "# counters") || !strings.Contains(a, "# histograms") {
				t.Error("snapshot text missing expected sections")
			}
		})
	}
}

// TestDeterminismConfigSensitivity guards against the trivial way the
// golden test could pass: telemetry that never varies at all.
func TestDeterminismConfigSensitivity(t *testing.T) {
	a, _ := snapshotRun(t, Config{Seed: 7, ClientLoad: 5, Managed: true}, 30*time.Second, 2*time.Minute)
	b, _ := snapshotRun(t, Config{Seed: 7, ClientLoad: 7, Managed: true}, 30*time.Second, 2*time.Minute)
	if a == b {
		t.Error("different loads produced identical telemetry snapshots")
	}
}
