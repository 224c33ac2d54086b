package manager

import (
	"testing"

	"softqos/internal/msg"
	"softqos/internal/runtime"
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
		builtHost = NewHostManager("/h/QoSHostManager", host, discard, "/d", Liveness{})
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
// the default rules (604 and 923 allocations when it did).
func TestNewManagerAllocations(t *testing.T) {
	host := runtime.NewLiveHost("h")
	for _, c := range []struct {
		name string
		max  float64
		new  func()
	}{
		{"host", 38, func() { NewHostManager("/h/QoSHostManager", host, discard, "/d", Liveness{}) }},
		{"domain", 38, func() { NewDomainManager("/d", discard, DomainConfig{}) }},
	} {
		if got := testing.AllocsPerRun(100, c.new); got > c.max {
			t.Errorf("%s manager: %.0f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}
