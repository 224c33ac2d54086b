package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supported(199, 0.95) || !supported(200, 0.95) {
		t.Error("p95 must be supported from exactly 200 samples")
	}
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 0.95); p != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", p)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(v))
	}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50}, // overlaps a: 20..30 counted once
		{name: "c", parent: 0, start: 60, end: 70},
		{name: "a1", parent: 1, start: 12, end: 18},    // a grandchild takes nothing from root
		{name: "late", parent: 0, start: 95, end: 120}, // clipped to the parent
	}
	want := []int64{100 - (20 + 20 + 10 + 5), 20 - 6, 30, 10, 6, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	ep := episodeSpans(7, genRec{call: 0, fn: 5, t0: 8, sendStart: 10, sendEnd: 20, ret: 22}, 60)
	self := selfTimes(ep)
	if ep[0].parent != -1 || ep[3].parent != 2 || self[2] != (22-8)-(20-10) {
		t.Errorf("episode spans %+v self %v", ep, self)
	}
	for _, s := range ep {
		if s.episode != 7 {
			t.Errorf("span %s has episode %d", s.name, s.episode)
		}
	}
}

// quickRun sets a quick pool up and runs its generators for d.
func quickRun(t *testing.T, name string, seed int64, d time.Duration, tweak func(*liveRun)) (*liveRun, liveCounts) {
	t.Helper()
	spec := liveSpecs[name]
	spec.pool = quickPool
	r, err := setupLive(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.st.close)
	r.logOps = true
	if tweak != nil {
		tweak(r)
	}
	r.run(0, []int32{phaseWindow}, d)
	return r, r.st.counts()
}

func TestSameSeedSameOperationSequence(t *testing.T) {
	a, _ := quickRun(t, "live_local", 7, 250*time.Millisecond, nil)
	b, _ := quickRun(t, "live_local", 7, 250*time.Millisecond, nil)
	c, _ := quickRun(t, "live_local", 8, 250*time.Millisecond, nil)
	if a.pidBase != b.pidBase || a.pidBase == c.pidBase {
		t.Fatalf("pid bases %d %d %d", a.pidBase, b.pidBase, c.pidBase)
	}
	differs := false
	for i := range a.conns {
		la, lb, lc := a.conns[i].opLog, b.conns[i].opLog, c.conns[i].opLog
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		if n < 32 { // a slow machine compares a shorter prefix, not none
			t.Fatalf("connection %d generated only %d operations", i, n)
		}
		if !reflect.DeepEqual(la[:n], lb[:n]) {
			t.Errorf("connection %d: same seed, different operations", i)
		}
		if len(lc) >= n && !reflect.DeepEqual(la[:n], lc[:n]) {
			differs = true
		}
	}
	if !differs {
		t.Error("another seed generated the same operations")
	}
}

func TestSuppressedReportsCountAsFailed(t *testing.T) {
	// Without the generator's pacing guard the second pass over the pool
	// lands inside the coordinators' 500 ms window and is suppressed.
	r, counts := quickRun(t, "live_local", 1, 300*time.Millisecond, func(r *liveRun) { r.guard = 0 })
	res := newResults()
	r.gates(counts, res)
	if res.failed == 0 || counts.suppressed == 0 || !strings.Contains(strings.Join(res.notes, "\n"), "suppressed") {
		t.Fatalf("failed %d, suppressed %d, notes %q", res.failed, counts.suppressed, res.notes)
	}
	if r.attempted() <= quickPool {
		t.Errorf("attempted %d: the pool was not revisited", r.attempted())
	}
}

func TestLostReportsCountAsFailed(t *testing.T) {
	// Nobody observes the adjustments, so no token ever comes back.
	r, counts := quickRun(t, "live_local", 1, 300*time.Millisecond, func(r *liveRun) {
		r.lostAfter = 100 * time.Millisecond
		r.st.onAdjust(func(int, int, int) {})
	})
	res := newResults()
	r.gates(counts, res)
	if res.failed == 0 || !strings.Contains(strings.Join(res.notes, "\n"), "timed out") {
		t.Fatalf("failed %d, notes %q", res.failed, res.notes)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(buildManifest())
	if err := json.Unmarshal(b, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestQuickSmoke runs every workload at smoke size, untraced and
// traced, and checks that each pass emits exactly the contract's metric
// names with their units, with no failed operation.
func TestQuickSmoke(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// 300 ms windows: one untraced, or an untraced and a traced one.
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.3, trace: traced, quick: true, outDir: t.TempDir()}
			if traced {
				cfg.seconds = 0.6
			}
			out, err := runWorkload(cfg, devnull)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", w.Name, traced, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, contract lists %d", w.Name, traced, len(out.Metrics), len(defs))
			}
			seen := make(map[string]bool)
			for _, d := range defs {
				if seen[d.Name] {
					t.Errorf("metric %s listed twice", d.Name)
				}
				seen[d.Name] = true
				m, ok := out.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted=%v unit %q, want %q", w.Name, traced, d.Name, ok, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace.json"); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
				if out.Metrics["trace.spans"].Value == 0 {
					t.Errorf("%s: traced pass recorded no span", w.Name)
				}
			}
		}
	}
}
