package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// randomValues draws n observations from a mix of distributions chosen
// to stress the sketch: uniform loads around 1.0, log-normal latencies
// spanning several decades, and occasional zeros.
func randomValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = 0 // zero bucket
		case 1, 2, 3:
			vals[i] = math.Exp(rng.NormFloat64()*2 + 14) // ~latency ns
		default:
			vals[i] = rng.Float64() * 4 // ~cpu load
		}
	}
	return vals
}

func sketchOf(vals []float64) *Sketch {
	s := NewSketch()
	for _, v := range vals {
		s.Observe(v)
	}
	return s
}

// equivalentSnapshots compares two snapshots for merge-equivalence:
// every discrete field (counts, buckets, min, max) must match exactly —
// that is the property the fleet quantiles rest on — while Sum, a
// float64 accumulator, may differ by rounding since FP addition is not
// associative.
func equivalentSnapshots(a, b SketchSnapshot) bool {
	sumsClose := math.Abs(a.Sum-b.Sum) <= math.Max(math.Abs(a.Sum), math.Abs(b.Sum))*1e-12
	a.Sum, b.Sum = 0, 0
	return sumsClose && reflect.DeepEqual(a, b)
}

// TestSketchMergeCommutative: a⊕b and b⊕a serialize identically — the
// property that makes fleet aggregates independent of arrival order.
func TestSketchMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		va := randomValues(rng, 1+rng.Intn(400))
		vb := randomValues(rng, 1+rng.Intn(400))

		ab := sketchOf(va)
		ab.Merge(sketchOf(vb))
		ba := sketchOf(vb)
		ba.Merge(sketchOf(va))

		if !equivalentSnapshots(ab.Snapshot(), ba.Snapshot()) {
			t.Fatalf("trial %d: a⊕b != b⊕a\n a⊕b=%+v\n b⊕a=%+v",
				trial, ab.Snapshot(), ba.Snapshot())
		}
	}
}

// TestSketchMergeAssociative: (a⊕b)⊕c and a⊕(b⊕c) serialize
// identically — hosts can merge up through any domain grouping.
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		va := randomValues(rng, 1+rng.Intn(300))
		vb := randomValues(rng, 1+rng.Intn(300))
		vc := randomValues(rng, 1+rng.Intn(300))

		left := sketchOf(va)
		left.Merge(sketchOf(vb))
		left.Merge(sketchOf(vc))

		bc := sketchOf(vb)
		bc.Merge(sketchOf(vc))
		right := sketchOf(va)
		right.Merge(bc)

		if !equivalentSnapshots(left.Snapshot(), right.Snapshot()) {
			t.Fatalf("trial %d: (a⊕b)⊕c != a⊕(b⊕c)", trial)
		}
	}
}

// TestSketchMergeEqualsDirectObservation: merging K per-host sketches
// must be indistinguishable from one sketch that observed every value —
// the exactness claim behind the federated quantiles.
func TestSketchMergeEqualsDirectObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var all []float64
	merged := NewSketch()
	for host := 0; host < 8; host++ {
		vals := randomValues(rng, 200)
		all = append(all, vals...)
		merged.MergeSnapshot(sketchOf(vals).Snapshot())
	}
	direct := sketchOf(all)
	if !equivalentSnapshots(merged.Snapshot(), direct.Snapshot()) {
		t.Fatal("merged per-host sketches differ from direct observation")
	}
	if merged.Count() != uint64(len(all)) {
		t.Fatalf("count %d, want %d", merged.Count(), len(all))
	}
}

// checkSketchAgainstExact observes vals into a fresh sketch and checks
// it against the exact sorted sample set: every quantile within
// SketchRelativeError of the nearest-rank value (zeros compared
// exactly), count/min/max exact, sum exact up to float rounding.
func checkSketchAgainstExact(t *testing.T, label string, vals []float64) {
	t.Helper()
	s := sketchOf(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0} {
		got, ok := s.Quantile(q)
		if !ok {
			t.Fatalf("%s q=%v: no value", label, q)
		}
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		exact := sorted[rank-1]
		if exact == 0 {
			if got != 0 {
				t.Fatalf("%s q=%v: exact 0, sketch %v", label, q, got)
			}
			continue
		}
		if rel := math.Abs(got-exact) / exact; rel > SketchRelativeError+1e-9 {
			t.Fatalf("%s q=%v: sketch %v vs exact %v, rel err %.4f > %.4f",
				label, q, got, exact, rel, SketchRelativeError)
		}
	}
	// Exact aggregates stay exact regardless of bucketing.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(s.Sum()-sum) > math.Abs(sum)*1e-12 {
		t.Fatalf("%s: sum %v, want %v", label, s.Sum(), sum)
	}
	if s.Count() != uint64(len(vals)) {
		t.Fatalf("%s: count %d, want %d", label, s.Count(), len(vals))
	}
	if s.Min() != sorted[0] || s.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max %v/%v, want %v/%v",
			label, s.Min(), s.Max(), sorted[0], sorted[len(sorted)-1])
	}
}

// seq returns the ramp 1, 2, …, n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestSketchQuantileErrorBound: against randomized data, and against
// the value sets the exact-sample histogram used to be tested with
// (small integers, ramps, a long cyclic stream, a heavy tail), every
// reported quantile stays within SketchRelativeError of the exact
// nearest-rank value while count, sum, min and max stay exact.
func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		checkSketchAgainstExact(t, "trial "+strconv.Itoa(trial), randomValues(rng, 500+rng.Intn(2000)))
	}
	cyclic := make([]float64, 3*8192)
	for i := range cyclic {
		cyclic[i] = float64(i % 1000)
	}
	heavy := make([]float64, 2000)
	for i := range heavy {
		heavy[i] = 100 + rng.Float64() // ~100 µs body …
		if i%100 == 0 {
			heavy[i] = math.Exp(rng.Float64()*12 + 6) // … with a tail to ~65 M
		}
	}
	for _, in := range []struct {
		label string
		vals  []float64
	}{
		{"rule firings", []float64{2, 3, 2, 2, 5, 0, 3, 2, 1, 2}},
		{"unordered small ints", []float64{4, 1, 3, 2}},
		{"ramp 10 descending", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}},
		{"ramp 100", seq(100)},
		{"ramp 5000", seq(5000)},
		{"cyclic 0..999", cyclic},
		{"heavy tail", heavy},
	} {
		checkSketchAgainstExact(t, in.label, in.vals)
	}

	// A constant stream is exact at every quantile: clamping pins the
	// bucket representative to min == max.
	constant := NewSketch()
	for i := 0; i < 1000; i++ {
		constant.Observe(42)
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0} {
		if got, ok := constant.Quantile(q); !ok || got != 42 {
			t.Fatalf("constant stream q=%v = (%v, %v), want exactly 42", q, got, ok)
		}
	}
	if constant.Mean() != 42 {
		t.Fatalf("constant stream mean %v, want 42", constant.Mean())
	}
}

// TestHistogramQuantileTable pins the nearest-rank semantics of the
// registry's histogram kind (a Sketch): which sample a quantile names,
// to within the sketch's error bound, and that an empty histogram or an
// out-of-range q reports (0, false).
func TestHistogramQuantileTable(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
		ok      bool
	}{
		{"empty window", nil, 0.5, 0, false},
		{"single sample p50", []float64{42}, 0.5, 42, true},
		{"single sample p99", []float64{42}, 0.99, 42, true},
		{"two samples p50", []float64{1, 9}, 0.5, 1, true},
		{"two samples p95", []float64{1, 9}, 0.95, 9, true},
		{"four samples p50", []float64{4, 1, 3, 2}, 0.5, 2, true},
		{"four samples p75", []float64{4, 1, 3, 2}, 0.75, 3, true},
		{"ten samples p90", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 9, true},
		{"hundred samples p99", seq(100), 0.99, 99, true},
		{"hundred samples p100", seq(100), 1.0, 100, true},
		{"invalid q zero", []float64{1, 2}, 0, 0, false},
		{"invalid q above one", []float64{1, 2}, 1.5, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := sketchOf(tc.samples).Quantile(tc.q)
			if ok != tc.ok || math.Abs(got-tc.want) > tc.want*SketchRelativeError+1e-9 {
				t.Errorf("Quantile(%v) = (%v, %v), want (%v ± %.2f%%, %v)",
					tc.q, got, ok, tc.want, 100*SketchRelativeError, tc.ok)
			}
		})
	}
}

// TestHistogramCumulativeStats: count, min, max and mean are exact,
// negative observations included; an empty histogram reads all zero.
func TestHistogramCumulativeStats(t *testing.T) {
	h := NewSketch()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram stats: count=%d mean=%v min=%v max=%v",
			h.Count(), h.Mean(), h.Min(), h.Max())
	}
	for _, v := range []float64{3, -1, 10} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Min() != -1 || h.Max() != 10 || h.Mean() != 4 {
		t.Errorf("stats: count=%d min=%v max=%v mean=%v", h.Count(), h.Min(), h.Max(), h.Mean())
	}
}

// TestSketchQuantileClampedToObservedRange: bucket representatives can
// overshoot the true extreme by the relative error; the report must not.
func TestSketchQuantileClampedToObservedRange(t *testing.T) {
	s := NewSketch()
	s.Observe(100)
	for _, q := range []float64{0.5, 0.99, 1.0} {
		if v, _ := s.Quantile(q); v != 100 {
			t.Fatalf("q=%v: got %v, want exactly 100 (clamped)", q, v)
		}
	}
}

// TestSketchEmptyAndReset covers the degenerate states: an empty sketch
// reports nothing and drains nothing; a drain returns every observation
// and resets the sketch, keeping its storage.
func TestSketchEmptyAndReset(t *testing.T) {
	s := NewSketch()
	if _, ok := s.Quantile(0.5); ok {
		t.Error("empty sketch reported a quantile")
	}
	if sn := s.Snapshot(); sn.Count != 0 || sn.Counts != nil {
		t.Errorf("empty snapshot not empty: %+v", sn)
	}
	if sn := s.drain(); sn.Count != 0 || sn.Counts != nil {
		t.Errorf("empty sketch drained %+v", sn)
	}
	for i := 0; i < 100; i++ {
		s.Observe(float64(i))
	}
	buckets := s.Buckets()
	want := s.Snapshot()
	if sn := s.drain(); !reflect.DeepEqual(sn, want) {
		t.Errorf("drain returned %+v, want %+v", sn, want)
	}
	if s.Count() != 0 || s.Sum() != 0 {
		t.Error("drain left observations behind")
	}
	if s.Buckets() != buckets {
		t.Error("drain should keep bucket storage for reuse")
	}
	if sn := s.Snapshot(); sn.Counts != nil {
		t.Errorf("post-drain snapshot still carries counts: %+v", sn)
	}
	s.Observe(3)
	if s.Count() != 1 {
		t.Error("sketch unusable after drain")
	}
}

// TestSketchSnapshotTrims: the serialized form carries only the
// populated bucket span, not the dense storage.
func TestSketchSnapshotTrims(t *testing.T) {
	s := NewSketch()
	s.Observe(1000) // forces a wide dense range...
	s.Observe(0.001)
	s.drain()
	s.Observe(2) // ...but only one bucket is live now
	sn := s.Snapshot()
	if len(sn.Counts) != 1 || sn.Counts[0] != 1 {
		t.Fatalf("snapshot not trimmed: %+v", sn)
	}
	if sn.Base != sketchIndex(2) {
		t.Fatalf("base %d, want %d", sn.Base, sketchIndex(2))
	}
}

// TestSummaryAbsorbMatchesDirect: absorbing exported windows from many
// summaries equals accumulating everything into one — the correctness
// of the domain-aggregation step itself.
func TestSummaryAbsorbMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	agg := NewSummary()
	direct := NewSummary()
	for host := 0; host < 5; host++ {
		s := NewSummary()
		for i := 0; i < 50; i++ {
			d := float64(rng.Intn(5))
			s.AddCounter("alarms", d)
			direct.AddCounter("alarms", d)
			v := rng.Float64() * 3
			s.SetMax("load_max", v)
			direct.SetMax("load_max", v)
			s.Sketch("load").Observe(v)
			direct.Sketch("load").Observe(v)
		}
		c, m, sk := s.Export()
		agg.Absorb(c, m, sk)
	}
	ac, am, ask := agg.Export()
	dc, dm, dsk := direct.Export()
	if !reflect.DeepEqual(ac, dc) || !reflect.DeepEqual(am, dm) {
		t.Fatalf("scalars differ: %v/%v vs %v/%v", ac, am, dc, dm)
	}
	if len(ask) != 1 || len(dsk) != 1 || ask[0].Name != "load" ||
		!equivalentSnapshots(ask[0].Sketch, dsk[0].Sketch) {
		t.Fatal("absorbed sketch differs from direct accumulation")
	}
}

// TestSummaryEmptyAndReset: freshly created and freshly drained
// summaries ship nothing (the exporter's skip path), and sketch handles
// survive the drain.
func TestSummaryEmptyAndReset(t *testing.T) {
	s := NewSummary()
	if _, _, _, ok := s.Drain(); ok {
		t.Error("new summary not empty")
	}
	sk := s.Sketch("lat")
	if _, _, _, ok := s.Drain(); ok {
		t.Error("registering an unused sketch should not make the summary shippable")
	}
	sk.Observe(1)
	s.AddCounter("c", 1)
	c, m, sks, ok := s.Drain()
	if !ok || len(c) != 1 || m != nil || len(sks) != 1 || sks[0].Sketch.Count != 1 {
		t.Errorf("populated summary drained %v %v %+v (ok %v)", c, m, sks, ok)
	}
	if _, _, _, ok := s.Drain(); ok {
		t.Error("drained summary not empty")
	}
	sk.Observe(2) // handle resolved before Drain must still feed the summary
	if s.Sketch("lat").Count() != 1 {
		t.Error("sketch handle did not survive Drain")
	}
}

// TestSummaryDrainLosesNothing: updates racing a stream of drains each
// land in exactly one drained window — what the windows shipped plus the
// final drain equals what was added, for counters and sketch counts.
func TestSummaryDrainLosesNothing(t *testing.T) {
	const writers, perWriter = 4, 20000
	s := NewSummary()
	sk := s.Sketch("lat")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.AddCounter("n", 1)
				s.SetMax("max", float64(w*perWriter+i))
				sk.Observe(float64(i))
			}
		}(w)
	}
	var shipped, observed float64
	top := -1.0
	drain := func() {
		c, m, sks, _ := s.Drain()
		for _, v := range c {
			shipped += v.Value
		}
		for _, v := range m {
			top = max(top, v.Value)
		}
		for _, ns := range sks {
			observed += float64(ns.Sketch.Count)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			drain()
		}
	}
	drain()
	if want := float64(writers * perWriter); shipped != want || observed != want {
		t.Fatalf("shipped %v counts and %v observations, want %v of each", shipped, observed, want)
	}
	if want := float64(writers*perWriter - 1); top != want {
		t.Fatalf("largest shipped maximum %v, want %v", top, want)
	}
}

// TestSummarySteadyStateAllocatesNothing: once a window has seen its
// names, recording into it and absorbing a window with the same names
// allocate nothing.
func TestSummarySteadyStateAllocatesNothing(t *testing.T) {
	src := NewSummary()
	for i := 0; i < 10; i++ {
		src.AddCounter("b", 1)
		src.AddCounter("a", 1)
		src.SetMax("m", float64(i))
		src.Sketch("lat").Observe(float64(i))
	}
	c, m, sks := src.Export()
	agg := NewSummary()
	agg.Absorb(c, m, sks)
	agg.Drain()
	allocs := testing.AllocsPerRun(100, func() {
		agg.AddCounter("a", 1)
		agg.SetMax("m", 3)
		agg.Absorb(c, m, sks)
		if _, _, _, ok := agg.Drain(); !ok {
			t.Fatal("nothing drained")
		}
	})
	// Drain's copies are the only allocations: counters, maxima, the
	// sketch list and the one sketch's bucket counts.
	if allocs > 4 {
		t.Fatalf("record+absorb+drain allocated %v times, want <= 4 (the drained copies)", allocs)
	}
}

// TestSummaryExportDeterministic: exported sketch slices are name-sorted
// and exports are copies — mutating the summary afterwards cannot alter
// an already-shipped window.
func TestSummaryExportDeterministic(t *testing.T) {
	s := NewSummary()
	s.Sketch("zz").Observe(1)
	s.Sketch("aa").Observe(2)
	s.AddCounter("n", 1)
	c, _, sk := s.Export()
	if len(sk) != 2 || sk[0].Name != "aa" || sk[1].Name != "zz" {
		t.Fatalf("sketches not name-sorted: %+v", sk)
	}
	s.AddCounter("n", 10)
	if c[0].Value != 1 {
		t.Error("export aliases live counter map")
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	s := NewSketch()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i%1000) + 0.5)
	}
}

// BenchmarkSketchMerge measures the domain-tier hot path: folding one
// serialized per-host snapshot into a running aggregate.
func BenchmarkSketchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	sn := sketchOf(randomValues(rng, 1000)).Snapshot()
	agg := NewSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.MergeSnapshot(sn)
	}
}

func BenchmarkSketchQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	s := sketchOf(randomValues(rng, 5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantiles()
	}
}

// TestSketchObserveDuration: durations land as nanosecond floats.
func TestSketchObserveDuration(t *testing.T) {
	s := NewSketch()
	s.ObserveDuration(5 * time.Millisecond)
	if s.Sum() != 5e6 {
		t.Fatalf("sum %v, want 5e6", s.Sum())
	}
}
