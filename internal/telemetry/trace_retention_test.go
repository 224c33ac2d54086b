package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// resolveN completes n quick violation episodes on distinct subjects.
func resolveN(tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("/h/app/exe/%d", i)
		tr.Begin(subj, "P", "coordinator", "")
		tr.Resolve(subj, "P")
	}
}

// TestTracerRetentionEvictsOldest: past the cap the tracer drops the
// oldest completed episode, keeps the newest, and counts evictions.
func TestTracerRetentionEvictsOldest(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRetention(3)
	resolveN(tr, 5)

	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(traces))
	}
	// Episodes 0 and 1 were evicted; 2, 3, 4 remain oldest-first.
	for i, tc := range traces {
		want := fmt.Sprintf("/h/app/exe/%d", i+2)
		if tc.Subject != want {
			t.Errorf("retained[%d] = %s, want %s", i, tc.Subject, want)
		}
	}
	if tr.Evicted() != 2 {
		t.Errorf("evicted = %d, want 2", tr.Evicted())
	}
	if tr.Dropped() != tr.Evicted() {
		t.Error("Dropped() must alias Evicted()")
	}
	// Completed counts every episode that ever finished, not just the
	// retained window.
	if tr.Completed() != 3 {
		t.Errorf("completed (retained) = %d, want 3", tr.Completed())
	}
}

// TestTracerRetentionRaiseAfterWrap: raising the cap after the
// retained window has wrapped its ring keeps oldest-first order intact
// across the transition back to plain appends, and eviction resumes
// correctly at the new cap.
func TestTracerRetentionRaiseAfterWrap(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRetention(3)
	resolveN(tr, 5) // retained: 2, 3, 4 in a wrapped ring
	tr.SetRetention(5)
	for i := 5; i < 8; i++ { // 5, 6 grow to the new cap; 7 evicts 2
		subj := fmt.Sprintf("/h/app/exe/%d", i)
		tr.Begin(subj, "P", "coordinator", "")
		tr.Resolve(subj, "P")
	}
	traces := tr.Traces()
	if len(traces) != 5 {
		t.Fatalf("retained %d traces, want 5", len(traces))
	}
	for i, tc := range traces {
		want := fmt.Sprintf("/h/app/exe/%d", i+3)
		if tc.Subject != want {
			t.Errorf("retained[%d] = %s, want %s", i, tc.Subject, want)
		}
	}
	if tr.Evicted() != 3 {
		t.Errorf("evicted = %d, want 3", tr.Evicted())
	}
}

// TestTracerRetentionDefaultCap: a fresh tracer is bounded at
// DefaultMaxTraces — unbounded growth is the opt-in, not the default.
func TestTracerRetentionDefaultCap(t *testing.T) {
	tr := NewTracer(nil)
	resolveN(tr, DefaultMaxTraces+10)
	if got := len(tr.Traces()); got != DefaultMaxTraces {
		t.Fatalf("retained %d, want default cap %d", got, DefaultMaxTraces)
	}
	if tr.Evicted() != 10 {
		t.Fatalf("evicted = %d, want 10", tr.Evicted())
	}
}

// TestTracerRetentionUnbounded: SetRetention(0) opts in to keeping
// everything.
func TestTracerRetentionUnbounded(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetRetention(0)
	resolveN(tr, DefaultMaxTraces+10)
	if got := len(tr.Traces()); got != DefaultMaxTraces+10 {
		t.Fatalf("retained %d, want all %d", got, DefaultMaxTraces+10)
	}
	if tr.Evicted() != 0 {
		t.Fatal("unbounded tracer evicted")
	}
}

// TestTracerEvictionCounter: with a registry attached, evictions
// surface as telemetry.traces.evicted — registered by SetMetrics, so
// the name is there at zero before the first eviction.
func TestTracerEvictionCounter(t *testing.T) {
	reg := NewRegistry(nil)
	tr := NewTracer(nil)
	tr.SetMetrics(reg)
	if snap := reg.Snapshot(); len(snap.Counters) != 2 || snap.Counters[0].Name != "telemetry.traces.evicted" ||
		snap.Counters[1].Name != "telemetry.traces.sampled_out" || snap.Counters[0].Value != 0 {
		t.Fatalf("SetMetrics registered %+v, want the two retention counters at 0", snap.Counters)
	}
	tr.SetRetention(2)
	resolveN(tr, 5)
	var got uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "telemetry.traces.evicted" {
			got = c.Value
		}
	}
	if got != 3 {
		t.Fatalf("telemetry.traces.evicted = %d, want 3", got)
	}
}

// TestTracerSamplingKeepsOneInN: fast recoveries are kept one per
// stride; the rest are dropped whole with their spans counted.
func TestTracerSamplingKeepsOneInN(t *testing.T) {
	reg := NewRegistry(nil)
	tr := NewTracer(nil)
	tr.SetMetrics(reg)
	tr.SetSampling(4, 0) // every recovery is "fast" (no slow threshold)
	resolveN(tr, 8)

	// Strides of 4: episodes 0 and 4 kept, the other 6 sampled out.
	if got := len(tr.Traces()); got != 2 {
		t.Fatalf("kept %d traces, want 2", got)
	}
	if tr.SampledOut() != 6 {
		t.Fatalf("sampled out %d, want 6", tr.SampledOut())
	}
	var spans uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "telemetry.traces.sampled_out" {
			spans = c.Value
		}
	}
	// Each episode carries 2 spans (violation, recovered).
	if spans != 12 {
		t.Fatalf("telemetry.traces.sampled_out = %d spans, want 12", spans)
	}
}

// TestTracerSamplingAlwaysKeepsSlowAndAbandoned: the episodes worth
// debugging — slow recoveries and abandonments — bypass sampling no
// matter the stride.
func TestTracerSamplingAlwaysKeepsSlowAndAbandoned(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.fn())
	tr.SetSampling(1000, 50*time.Millisecond)

	// Burn the stride's kept slot on a fast recovery.
	tr.Begin("fast-0", "P", "coordinator", "")
	tr.Resolve("fast-0", "P")

	// Fast recoveries now sample out...
	tr.Begin("fast-1", "P", "coordinator", "")
	tr.Resolve("fast-1", "P")

	// ...but a slow recovery is always kept...
	tr.Begin("slow", "P", "coordinator", "")
	clk.now += 60 * time.Millisecond
	tr.Resolve("slow", "P")

	// ...and so is an abandonment, however fast.
	tr.Begin("dead", "P", "coordinator", "")
	tr.Abandon("dead", "P", "hostmanager", "process evicted")

	subjects := map[string]bool{}
	for _, tc := range tr.Traces() {
		subjects[tc.Subject] = true
	}
	if !subjects["fast-0"] || subjects["fast-1"] || !subjects["slow"] || !subjects["dead"] {
		t.Fatalf("kept set wrong: %v", subjects)
	}
	if tr.SampledOut() != 1 {
		t.Fatalf("sampled out %d, want 1 (fast-1 only)", tr.SampledOut())
	}
}

// TestTracerSamplingOffByDefault: an unarmed tracer keeps everything.
func TestTracerSamplingOffByDefault(t *testing.T) {
	tr := NewTracer(nil)
	resolveN(tr, 20)
	if got := len(tr.Traces()); got != 20 {
		t.Fatalf("kept %d, want all 20", got)
	}
	if tr.SampledOut() != 0 {
		t.Fatal("default tracer sampled traces out")
	}
}
