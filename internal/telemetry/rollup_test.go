package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// rollupFixture samples a counter and a gauge n times, every step, with
// the rollup tiers armed. Sample i (from 1) lands at i*step with the
// counter and the gauge both at i.
func rollupFixture(n int, step time.Duration) *Timeline {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	c := reg.Counter("r.count")
	g := reg.Gauge("r.gauge")
	tl := NewTimeline(reg)
	tl.EnableRollup()
	for i := 1; i <= n; i++ {
		now = time.Duration(i) * step
		c.Inc()
		g.Set(float64(i))
		tl.Sample()
	}
	return tl
}

// TestTimelineRollupBuckets: raw 30s samples roll into 5m buckets —
// counters keep the bucket's last (cumulative) value, gauges the bucket
// mean, and only completed buckets export.
func TestTimelineRollupBuckets(t *testing.T) {
	tl := rollupFixture(35, 30*time.Second)
	dumps := tl.Dump().Rollups
	if len(dumps) != 2 {
		t.Fatalf("rollup tiers = %d, want 2", len(dumps))
	}
	rd := dumps[0]
	if rd.Resolution != 5*time.Minute {
		t.Fatalf("resolution = %v, want 5m", rd.Resolution)
	}
	byName := map[string]Series{}
	for _, s := range rd.Series {
		byName[s.Name] = s
	}

	// Samples 1..35 at 30s..17m30s: bucket [0,5m) closes when sample 10
	// lands at 5m, [5m,10m) at sample 20, [10m,15m) at sample 30;
	// [15m,20m) is still open.
	cnt := byName["r.count"]
	if len(cnt.Points) != 3 {
		t.Fatalf("r.count rollup points = %d, want 3", len(cnt.Points))
	}
	// Counter keeps the last cumulative value of each bucket (9, 19, 29 —
	// the value of samples 9, 19 and 29).
	wantCnt := []Point{{0, 9}, {5 * time.Minute, 19}, {10 * time.Minute, 29}}
	for i, p := range cnt.Points {
		if p != wantCnt[i] {
			t.Errorf("r.count point %d = %+v, want %+v", i, p, wantCnt[i])
		}
	}
	// Gauge keeps the bucket mean: 1..9 → 5, 10..19 → 14.5, 20..29 → 24.5.
	gau := byName["r.gauge"]
	wantGau := []float64{5, 14.5, 24.5}
	for i, p := range gau.Points {
		if p.V != wantGau[i] {
			t.Errorf("r.gauge point %d = %v, want %v", i, p.V, wantGau[i])
		}
		if p.At%(5*time.Minute) != 0 {
			t.Errorf("bucket start %v not aligned to resolution", p.At)
		}
	}
}

// TestTimelineRollupTiersIndependent: each resolution tier accumulates
// from the same raw stream independently; a short run leaves the coarse
// tier empty rather than approximated.
func TestTimelineRollupTiersIndependent(t *testing.T) {
	tl := rollupFixture(25, 30*time.Second)
	dumps := tl.Dump().Rollups
	if len(dumps) != 2 {
		t.Fatalf("tiers = %d, want 2", len(dumps))
	}
	if got := len(dumps[0].Series); got == 0 {
		t.Error("5m tier has no completed buckets after 12m30s")
	}
	if got := len(dumps[1].Series); got != 0 {
		t.Errorf("1h tier exported %d series before any bucket completed", got)
	}
}

// TestTimelineRollupRingBounded: the rollup tier's ring overwrites its
// oldest buckets once capacity is reached — retention at every tier is
// bounded by construction.
func TestTimelineRollupRingBounded(t *testing.T) {
	// One sample per 5m bucket: every sample closes the previous bucket.
	tl := rollupFixture(DefaultTimelineCapacity+8, 5*time.Minute)
	rd := tl.Dump().Rollups[0]
	if rd.Capacity != DefaultTimelineCapacity {
		t.Fatalf("capacity = %d, want %d", rd.Capacity, DefaultTimelineCapacity)
	}
	for _, s := range rd.Series {
		if len(s.Points) != DefaultTimelineCapacity {
			t.Fatalf("%s retained %d buckets, want %d", s.Name, len(s.Points), DefaultTimelineCapacity)
		}
		// The newest completed buckets survive, in chronological order.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].At <= s.Points[i-1].At {
				t.Fatalf("%s buckets out of order: %+v", s.Name, s.Points)
			}
		}
	}
}

// TestTimelineRollupDefaults: EnableRollup arms the 5m and 1h tiers.
func TestTimelineRollupDefaults(t *testing.T) {
	tl := NewTimeline(NewRegistry(nil))
	tl.EnableRollup()
	tl.Sample()
	dumps := tl.Dump().Rollups
	if len(dumps) != 2 || dumps[0].Resolution != 5*time.Minute || dumps[1].Resolution != time.Hour {
		t.Fatalf("default tiers = %+v, want 5m and 1h", dumps)
	}
}

// TestTimelineDumpOmitsRollupsWhenDisabled: without EnableRollup the
// dump JSON must not mention rollups at all — pre-existing timeline
// goldens stay byte-identical.
func TestTimelineDumpOmitsRollupsWhenDisabled(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("x").Inc()
	tl := NewTimeline(reg)
	tl.Sample()
	var b strings.Builder
	if err := tl.Dump().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "rollups") {
		t.Fatalf("dump mentions rollups with rollup disabled:\n%s", b.String())
	}
}

// TestTimelineSeriesCap: series beyond MaxTimelineSeries are refused
// and counted in the registry's telemetry.timeline.evicted counter.
func TestTimelineSeriesCap(t *testing.T) {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	for i := 0; i < MaxTimelineSeries+3; i++ {
		reg.Counter(fmt.Sprintf("c%04d", i))
	}
	tl := NewTimeline(reg)

	now = time.Second
	tl.Sample()
	if got := len(tl.Series()); got != MaxTimelineSeries {
		t.Fatalf("tracked %d series, want cap %d", got, MaxTimelineSeries)
	}
	// The eviction counter counts every refusal — but it is itself a
	// series past the cap, so it must never recurse into the tracked set.
	snap := reg.Snapshot()
	var found bool
	for _, c := range snap.Counters {
		if c.Name == "telemetry.timeline.evicted" {
			found = true
			if c.Value == 0 {
				t.Error("eviction counter registered but never incremented")
			}
		}
	}
	if !found {
		t.Fatal("telemetry.timeline.evicted not in registry")
	}
	// Existing series keep recording under the cap.
	now = 2 * time.Second
	tl.Sample()
	s, ok := tl.SeriesByName("c0000")
	if !ok || len(s.Points) != 2 {
		t.Fatalf("capped recorder stopped recording tracked series: %+v", s)
	}
}
