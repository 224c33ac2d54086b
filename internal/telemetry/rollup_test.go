package telemetry

import (
	"strings"
	"testing"
	"time"
)

// rollupFixture samples a counter and a gauge once per second for d,
// with rollup tiers armed at the given resolutions.
func rollupFixture(d time.Duration, capacity int, resolutions ...time.Duration) *Timeline {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	c := reg.Counter("r.count")
	g := reg.Gauge("r.gauge")
	tl := NewTimeline(reg, 64)
	tl.EnableRollup(capacity, resolutions...)
	for now = time.Second; now <= d; now += time.Second {
		c.Inc()
		g.Set(float64(now / time.Second))
		tl.Sample()
	}
	return tl
}

// TestTimelineRollupBuckets: raw 1s samples roll into 10s buckets —
// counters keep the bucket's last (cumulative) value, gauges the bucket
// mean, and only completed buckets export.
func TestTimelineRollupBuckets(t *testing.T) {
	tl := rollupFixture(35*time.Second, 0, 10*time.Second)
	dumps := tl.Dump().Rollups
	if len(dumps) != 1 {
		t.Fatalf("rollup tiers = %d, want 1", len(dumps))
	}
	rd := dumps[0]
	if rd.Resolution != 10*time.Second {
		t.Fatalf("resolution = %v, want 10s", rd.Resolution)
	}
	byName := map[string]Series{}
	for _, s := range rd.Series {
		byName[s.Name] = s
	}

	// Samples at 1s..35s: bucket [0,10) closes when 10s lands, [10,20)
	// when 20s lands, [20,30) when 30s lands; [30,40) is still open.
	cnt := byName["r.count"]
	if len(cnt.Points) != 3 {
		t.Fatalf("r.count rollup points = %d, want 3", len(cnt.Points))
	}
	// Counter keeps the last cumulative value of each bucket (9, 19, 29 —
	// the value sampled at 9s, 19s, 29s).
	wantCnt := []Point{{0, 9}, {10 * time.Second, 19}, {20 * time.Second, 29}}
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
		if p.At%(10*time.Second) != 0 {
			t.Errorf("bucket start %v not aligned to resolution", p.At)
		}
	}
}

// TestTimelineRollupTiersIndependent: each resolution tier accumulates
// from the same raw stream independently; a short run leaves the coarse
// tier empty rather than approximated.
func TestTimelineRollupTiersIndependent(t *testing.T) {
	tl := rollupFixture(25*time.Second, 0, 10*time.Second, time.Minute)
	dumps := tl.Dump().Rollups
	if len(dumps) != 2 {
		t.Fatalf("tiers = %d, want 2", len(dumps))
	}
	if got := len(dumps[0].Series); got == 0 {
		t.Error("10s tier has no completed buckets after 25s")
	}
	if got := len(dumps[1].Series); got != 0 {
		t.Errorf("1m tier exported %d series before any bucket completed", got)
	}
}

// TestTimelineRollupRingBounded: the rollup tier's ring overwrites its
// oldest buckets once capacity is reached — retention at every tier is
// bounded by construction.
func TestTimelineRollupRingBounded(t *testing.T) {
	tl := rollupFixture(100*time.Second, 4, 10*time.Second)
	rd := tl.Dump().Rollups[0]
	if rd.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", rd.Capacity)
	}
	for _, s := range rd.Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s retained %d buckets, want 4", s.Name, len(s.Points))
		}
		// The newest completed buckets survive, in chronological order.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].At <= s.Points[i-1].At {
				t.Fatalf("%s buckets out of order: %+v", s.Name, s.Points)
			}
		}
	}
}

// TestTimelineRollupDefaults: EnableRollup() with no resolutions arms
// the 5m and 1h tiers.
func TestTimelineRollupDefaults(t *testing.T) {
	tl := NewTimeline(NewRegistry(nil), 8)
	tl.EnableRollup(0)
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
	tl := NewTimeline(reg, 4)
	tl.Sample()
	var b strings.Builder
	if err := tl.Dump().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "rollups") {
		t.Fatalf("dump mentions rollups with rollup disabled:\n%s", b.String())
	}
}

// TestTimelineSeriesCap: with SetMaxSeries, series beyond the cap are
// refused and counted — both on the recorder and in the registry's
// telemetry.timeline.evicted counter.
func TestTimelineSeriesCap(t *testing.T) {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	reg.Counter("a")
	reg.Counter("b")
	reg.Counter("c")
	tl := NewTimeline(reg, 4)
	tl.SetMaxSeries(2)

	now = time.Second
	tl.Sample()
	if got := len(tl.Series()); got != 2 {
		t.Fatalf("tracked %d series, want cap 2", got)
	}
	if tl.Evicted() == 0 {
		t.Fatal("series cap refused samples without counting them")
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
	s, ok := tl.SeriesByName("a")
	if !ok || len(s.Points) != 2 {
		t.Fatalf("capped recorder stopped recording tracked series: %+v", s)
	}
}

// TestTimelineUncappedByDefault: a fresh recorder tracks every series
// (simulation mode must stay byte-identical to the pre-cap behavior).
func TestTimelineUncappedByDefault(t *testing.T) {
	reg := NewRegistry(nil)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		reg.Counter(n)
	}
	tl := NewTimeline(reg, 4)
	tl.Sample()
	// The five counters plus the recorder's own telemetry.timeline.evicted.
	if got := len(tl.Series()); got != 6 {
		t.Fatalf("tracked %d series, want all 6", got)
	}
	if tl.Evicted() != 0 {
		t.Fatal("uncapped recorder evicted")
	}
}
