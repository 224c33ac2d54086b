package netsim

import (
	"testing"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
)

// BenchmarkSwitchForwarding measures the per-packet cost of the
// simulated network's store-and-forward path: two hops with per-flow
// statistics, driven to completion through the event loop.
func BenchmarkSwitchForwarding(b *testing.B) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	delivered := 0
	n.AddNode("src", nil)
	n.AddNode("dst", func(Packet) { delivered++ })
	sw1 := n.AddSwitch("sw1", 1e9, 1<<20)
	sw2 := n.AddSwitch("sw2", 1e9, 1<<20)
	n.SetRoute("src", "dst", time.Millisecond, sw1, sw2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send("src", "dst", 1500, nil); err != nil {
			b.Fatal(err)
		}
		s.RunFor(10 * time.Millisecond)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
