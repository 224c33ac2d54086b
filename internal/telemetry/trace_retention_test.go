package telemetry

import (
	"fmt"
	"testing"
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
	resolveN(tr, DefaultMaxTraces+2)

	traces := tr.Traces()
	if len(traces) != DefaultMaxTraces {
		t.Fatalf("retained %d traces, want %d", len(traces), DefaultMaxTraces)
	}
	// Episodes 0 and 1 were evicted; 2 onwards remain oldest-first.
	for i, tc := range traces {
		want := fmt.Sprintf("/h/app/exe/%d", i+2)
		if tc.Subject != want {
			t.Fatalf("retained[%d] = %s, want %s", i, tc.Subject, want)
		}
	}
	if tr.Evicted() != 2 {
		t.Errorf("evicted = %d, want 2", tr.Evicted())
	}
	if tr.Dropped() != tr.Evicted() {
		t.Error("Dropped() must alias Evicted()")
	}
	// Completed counts the retained window, not every episode that ever
	// finished.
	if tr.Completed() != DefaultMaxTraces {
		t.Errorf("completed (retained) = %d, want %d", tr.Completed(), DefaultMaxTraces)
	}
}

// TestTracerRetentionDefaultCap: every tracer is bounded at
// DefaultMaxTraces.
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

// TestTracerEvictionCounter: with a registry attached, evictions
// surface as telemetry.traces.evicted — registered by SetMetrics, so
// the name is there at zero before the first eviction.
func TestTracerEvictionCounter(t *testing.T) {
	reg := NewRegistry(nil)
	tr := NewTracer(nil)
	tr.SetMetrics(reg)
	if snap := reg.Snapshot(); len(snap.Counters) != 1 || snap.Counters[0].Name != "telemetry.traces.evicted" ||
		snap.Counters[0].Value != 0 {
		t.Fatalf("SetMetrics registered %+v, want the retention counter at 0", snap.Counters)
	}
	resolveN(tr, DefaultMaxTraces+3)
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

// TestTracerSamplingOffByDefault: below the cap a tracer keeps every
// completed episode — fast recoveries are never sampled away.
func TestTracerSamplingOffByDefault(t *testing.T) {
	tr := NewTracer(nil)
	resolveN(tr, 20)
	if got := len(tr.Traces()); got != 20 {
		t.Fatalf("kept %d, want all 20", got)
	}
	if tr.Evicted() != 0 {
		t.Fatal("tracer below its cap evicted traces")
	}
}
