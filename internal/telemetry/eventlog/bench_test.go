package eventlog

import (
	"testing"
	"time"
)

// BenchmarkEventDisabled measures the disabled path: a nil *Logger must
// cost a nil check and nothing else — 0 allocs/op, variadic fields
// included, so call sites never need their own guards.
func BenchmarkEventDisabled(b *testing.B) {
	var lg *Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Event(Warn, "manager", "host_evicted", Str("host", "h-3"), Int("gen", i))
	}
}

// BenchmarkEventAppend measures the enabled append path on a full ring
// (steady state: every append evicts the oldest record).
func BenchmarkEventAppend(b *testing.B) {
	lg := New(func() time.Duration { return 0 }, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Event(Warn, "manager", "host_evicted", Str("host", "h-3"), Int("gen", i))
	}
}

// TestEventDisabledZeroAllocs pins the disabled-path guarantee in the
// regular test suite, independent of the bench trajectory.
func TestEventDisabledZeroAllocs(t *testing.T) {
	var lg *Logger
	allocs := testing.AllocsPerRun(1000, func() {
		lg.Event(Warn, "manager", "host_evicted", Str("host", "h-3"), Int("gen", 1))
	})
	if allocs != 0 {
		t.Fatalf("disabled Event allocates %.1f per call, want 0", allocs)
	}
}
