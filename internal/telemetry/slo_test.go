package telemetry

import (
	"math"
	"testing"
	"time"
)

// mkTrace builds a completed or open trace covering [start, end) with
// the canonical detect→locate→adapt span sequence.
func mkTrace(tr *Tracer, clock *time.Duration, subject, policy string, start, end time.Duration, recover bool) {
	*clock = start
	ctx := tr.Begin(subject, policy, "coordinator", "expression false")
	*clock = start + 10*time.Millisecond
	ctx = tr.EventCtx(ctx, subject, policy, "coordinator", StageNotify, "report")
	*clock = start + 30*time.Millisecond
	ctx = tr.EventCtx(ctx, subject, policy, "hostmanager", StageDiagnose, "episode")
	*clock = start + 70*time.Millisecond
	tr.EventCtx(ctx, subject, policy, "cpu-manager", StageAdapt, "boost")
	if recover {
		*clock = end
		tr.Resolve(subject, policy)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestComputeCompliance(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })

	// Policy P: two subjects, overlapping violations 10s-20s and 15s-30s
	// (union 20s violated), plus an open episode from 110s.
	mkTrace(tr, &now, "/h1/app/a/1", "P", 10*time.Second, 20*time.Second, true)
	mkTrace(tr, &now, "/h1/app/b/2", "P", 15*time.Second, 30*time.Second, true)
	mkTrace(tr, &now, "/h1/app/a/1", "P", 110*time.Second, 0, false)
	now = 120 * time.Second

	targets := []SLOTarget{{
		Policy: "P", Objective: "fps in 23..27", Target: 0.9,
		FastWindow: 30 * time.Second, SlowWindow: 100 * time.Second,
	}, {
		Policy: "Quiet", // declared but never violated
	}}
	out := ComputeCompliance(tr.Traces(), now, targets)
	if len(out) != 2 {
		t.Fatalf("policies = %d, want 2", len(out))
	}
	p := out[0]
	if p.Policy != "P" || out[1].Policy != "Quiet" {
		t.Fatalf("order = %s, %s", out[0].Policy, out[1].Policy)
	}
	if p.Episodes != 3 || p.Recovered != 2 || p.Open != 1 {
		t.Errorf("episodes=%d recovered=%d open=%d, want 3/2/1", p.Episodes, p.Recovered, p.Open)
	}
	// Union violated: [10,30] + [110,120] = 30s of 120s → 0.75 overall.
	if p.ViolationTime != 30*time.Second {
		t.Errorf("violation time = %v, want 30s", p.ViolationTime)
	}
	if !almostEq(p.ViolationMinutes, 0.5) {
		t.Errorf("violation minutes = %v, want 0.5", p.ViolationMinutes)
	}
	if !almostEq(p.Compliance, 0.75) {
		t.Errorf("compliance = %v, want 0.75", p.Compliance)
	}
	// Fast window [90,120]: violated [110,120] = 10s → 2/3 compliant.
	if !almostEq(p.FastCompliance, 1-10.0/30.0) {
		t.Errorf("fast compliance = %v, want 2/3", p.FastCompliance)
	}
	// Slow window [20,120]: violated [20,30]+[110,120] = 20s → 0.8.
	if !almostEq(p.SlowCompliance, 0.8) {
		t.Errorf("slow compliance = %v, want 0.8", p.SlowCompliance)
	}
	// Burn = (1-compliance)/(1-target), target 0.9 → budget 0.1.
	if !almostEq(p.FastBurn, (10.0/30.0)/0.1) {
		t.Errorf("fast burn = %v", p.FastBurn)
	}
	if !almostEq(p.SlowBurn, 2.0) {
		t.Errorf("slow burn = %v, want 2", p.SlowBurn)
	}
	if !p.Breaching() {
		t.Error("P should be breaching")
	}
	// MeanTTR over the two recovered episodes: (10s + 15s)/2.
	if !almostEq(p.MeanTTRMs, 12500) {
		t.Errorf("mean ttr = %v ms, want 12500", p.MeanTTRMs)
	}

	q := out[1]
	if q.Episodes != 0 || !almostEq(q.Compliance, 1) || !almostEq(q.FastCompliance, 1) {
		t.Errorf("quiet policy not fully compliant: %+v", q)
	}
	if q.Target != DefaultSLOTarget || q.FastWindow != DefaultFastWindow || q.SlowWindow != DefaultSlowWindow {
		t.Errorf("defaults not applied: %+v", q)
	}
	if q.Breaching() {
		t.Error("quiet policy breaching")
	}
}

func TestComputeComplianceEarlyWindowClipped(t *testing.T) {
	// 5s into the run with a 60s window: the window clips to [0,5s], so
	// a 1s violation reads as 80% compliant, not 1-1/60.
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	mkTrace(tr, &now, "/h/a/x/1", "P", 2*time.Second, 3*time.Second, true)
	now = 5 * time.Second
	out := ComputeCompliance(tr.Traces(), now, nil)
	if len(out) != 1 {
		t.Fatalf("policies = %d", len(out))
	}
	if !almostEq(out[0].FastCompliance, 0.8) {
		t.Errorf("clipped fast compliance = %v, want 0.8", out[0].FastCompliance)
	}
}

func TestLoopStageDurations(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	mkTrace(tr, &now, "/h/a/x/1", "P", time.Second, 2*time.Second, true)
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatal("no trace")
	}
	d, l, a, okD, okL, okA := LoopStageDurations(traces[0])
	if !okD || !okL || !okA {
		t.Fatalf("stages missing: %v %v %v", okD, okL, okA)
	}
	if d != 10*time.Millisecond || l != 20*time.Millisecond || a != 40*time.Millisecond {
		t.Errorf("detect/locate/adapt = %v/%v/%v, want 10ms/20ms/40ms", d, l, a)
	}

	// A trace that never got past detection reports only detect.
	now = 10 * time.Second
	ctx := tr.Begin("/h/a/x/1", "Q", "coordinator", "false")
	now = 10*time.Second + 5*time.Millisecond
	tr.EventCtx(ctx, "/h/a/x/1", "Q", "coordinator", StageNotify, "report")
	for _, t2 := range tr.Traces() {
		if t2.Policy != "Q" {
			continue
		}
		_, _, _, okD, okL, okA := LoopStageDurations(t2)
		if !okD || okL || okA {
			t.Errorf("partial trace stages = %v %v %v, want true false false", okD, okL, okA)
		}
	}
}

func TestLoopMinerMinesOnce(t *testing.T) {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	tr := NewTracer(reg.Clock())
	m := NewLoopMiner(reg)

	mkTrace(tr, &now, "/h/a/x/1", "P", time.Second, 2*time.Second, true)
	mkTrace(tr, &now, "/h/a/x/1", "P", 5*time.Second, 0, false) // open: not mined

	if n := m.Mine(tr.Traces()); n != 1 {
		t.Fatalf("mined %d, want 1", n)
	}
	if n := m.Mine(tr.Traces()); n != 0 {
		t.Fatalf("re-mine consumed %d, want 0", n)
	}
	d, l, a := m.Stages()
	if d.Count != 1 || l.Count != 1 || a.Count != 1 {
		t.Errorf("stage counts = %d/%d/%d, want 1/1/1", d.Count, l.Count, a.Count)
	}
	if !almostEq(d.P50, 10) || !almostEq(l.P50, 20) || !almostEq(a.P50, 40) {
		t.Errorf("stage p50 = %v/%v/%v, want 10/20/40 ms", d.P50, l.P50, a.P50)
	}

	// The histograms live in the registry under the loop.* names.
	snap := reg.Snapshot()
	found := 0
	for _, h := range snap.Histograms {
		switch h.Name {
		case MetricLoopDetectMs, MetricLoopLocateMs, MetricLoopAdaptMs:
			found++
		}
	}
	if found != 3 {
		t.Errorf("loop.* histograms in snapshot = %d, want 3", found)
	}

	// Once the open episode resolves it is mined exactly once.
	now = 9 * time.Second
	tr.Resolve("/h/a/x/1", "P")
	if n := m.Mine(tr.Traces()); n != 1 {
		t.Errorf("resolved episode mined %d times, want 1", n)
	}
}

// TestLoopMinerMinedSetBounded: the miner remembers only the completed
// traces the tracer still retains. Three retention-caps' worth of
// episodes, mined batch by batch the way the live sampler does, never
// grow the mined set past the cap, and each distinct completed trace is
// counted exactly once.
func TestLoopMinerMinedSetBounded(t *testing.T) {
	const retain, batches = 64, 3
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	tr := NewTracer(reg.Clock())
	tr.SetRetention(retain)
	m := NewLoopMiner(reg)

	total := 0
	for b := 0; b < batches; b++ {
		for i := 0; i < retain; i++ {
			start := time.Duration(b*retain+i) * time.Second
			mkTrace(tr, &now, "/h/a/x/1", "P", start, start+500*time.Millisecond, true)
		}
		total += m.Mine(tr.TracesSnapshot())
		if n := m.Mine(tr.TracesSnapshot()); n != 0 {
			t.Fatalf("batch %d: re-mine consumed %d, want 0", b, n)
		}
		if len(m.mined) > retain {
			t.Fatalf("batch %d: mined set holds %d IDs, want <= retention cap %d", b, len(m.mined), retain)
		}
	}
	if tr.Evicted() != (batches-1)*retain {
		t.Fatalf("tracer evicted %d, want %d", tr.Evicted(), (batches-1)*retain)
	}
	d, l, a := m.Stages()
	if want := uint64(batches * retain); total != int(want) || d.Count != want || l.Count != want || a.Count != want {
		t.Errorf("mined %d, loop.* counts %d/%d/%d, want %d each", total, d.Count, l.Count, a.Count, want)
	}
}
