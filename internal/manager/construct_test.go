package manager

import (
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

func discard(string, msg.Message) error { return nil }

// Benchmark results, kept so the compiler cannot drop the constructions.
var (
	builtHost   *HostManager
	builtDomain *DomainManager
)

// BenchmarkNewHostManager: constructing one host manager, which loads the
// default host rules compiled once per process.
func BenchmarkNewHostManager(b *testing.B) {
	host := runtime.NewLiveHost("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtHost = NewHostManager("/h/QoSHostManager", host, discard, "/d", Liveness{}, obs.Kit{})
	}
}

// BenchmarkNewDomainManager: constructing one domain manager, which loads
// the default domain rules compiled once per process.
func BenchmarkNewDomainManager(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtDomain = NewDomainManager("/d", discard, DomainConfig{})
	}
}

// TestNewManagerAllocations pins what constructing a manager allocates
// now that it loads a compiled program instead of parsing and compiling
// the default rules (604 and 923 allocations when it did), with no
// telemetry and with a full kit whose registry already holds the
// manager's metric names: the host manager then also builds its nine
// host-scoped names, and both bind their rule-explanation callback.
func TestNewManagerAllocations(t *testing.T) {
	host := runtime.NewLiveHost("h")
	clock := func() time.Duration { return 0 }
	kit := obs.Kit{Metrics: telemetry.NewRegistry(clock), Tracer: telemetry.NewTracer(clock), Log: eventlog.New(clock, 0)}
	for _, c := range []struct {
		name string
		max  float64
		new  func()
	}{
		{"host", 38, func() { NewHostManager("/h/QoSHostManager", host, discard, "/d", Liveness{}, obs.Kit{}) }},
		{"domain", 38, func() { NewDomainManager("/d", discard, DomainConfig{}) }},
		{"host+kit", 48, func() { NewHostManager("/h/QoSHostManager", host, discard, "/d", Liveness{}, kit) }},
		{"domain+kit", 39, func() { NewDomainManager("/d", discard, DomainConfig{Kit: kit}) }},
	} {
		if got := testing.AllocsPerRun(100, c.new); got > c.max {
			t.Errorf("%s manager: %.0f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}
