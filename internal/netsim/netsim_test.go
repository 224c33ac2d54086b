package netsim

import (
	"testing"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
)

// testNet builds client <- sw1 <- server with the given switch rate (B/s)
// and queue capacity, returning the network, switch, and a slice that
// collects packets delivered to "client".
func testNet(s *sim.Simulator, rate float64, qcap int) (*Network, *Switch, *[]Packet) {
	n := New(s, obs.Kit{})
	var got []Packet
	n.AddNode("client", func(p Packet) { got = append(got, p) })
	n.AddNode("server", nil)
	sw := n.AddSwitch("sw1", rate, qcap)
	n.SetRoute("server", "client", 10*time.Millisecond, sw)
	return n, sw, &got
}

func TestDeliveryWithPropagationAndService(t *testing.T) {
	s := sim.New(1)
	n, _, got := testNet(s, 1e6, 1<<20) // 1 MB/s
	if err := n.Send("server", "client", 1000, "frame"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	// 10ms propagation + 1ms service (1000B at 1MB/s).
	if want := sim.At(11 * time.Millisecond); s.Now() != want {
		t.Errorf("delivery completed at %v, want %v", s.Now(), want)
	}
	if (*got)[0].Payload != "frame" {
		t.Errorf("payload = %v", (*got)[0].Payload)
	}
}

func TestNoRouteError(t *testing.T) {
	s := sim.New(1)
	n, _, _ := testNet(s, 1e6, 1<<20)
	if err := n.Send("client", "server", 100, nil); err == nil {
		t.Fatal("send without route succeeded")
	}
}

func TestQueueingDelayUnderBurst(t *testing.T) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	var delivered []sim.Time
	n.AddNode("client", func(Packet) { delivered = append(delivered, s.Now()) })
	n.AddNode("server", nil)
	n.SetRoute("server", "client", 10*time.Millisecond, n.AddSwitch("sw1", 1e6, 1<<20))
	// 10 packets of 1000B arrive simultaneously: each takes 1ms service,
	// so the last departs 10ms after arrival.
	for i := 0; i < 10; i++ {
		_ = n.Send("server", "client", 1000, i)
	}
	s.Run()
	if len(delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(delivered))
	}
	if want := sim.At(20 * time.Millisecond); s.Now() != want { // 10ms prop + 10ms cumulative service
		t.Errorf("last delivery at %v, want %v", s.Now(), want)
	}
	// Switch delay is delivery time less the 10ms propagation: 1..10ms.
	var delay time.Duration
	for _, at := range delivered {
		delay += at.Duration() - 10*time.Millisecond
	}
	if mean := delay / 10; mean < 5*time.Millisecond {
		t.Errorf("mean switch delay %v too small for a 10-deep burst", mean)
	}
}

func TestDropTailOverflow(t *testing.T) {
	s := sim.New(1)
	n, sw, got := testNet(s, 1e6, 3000) // queue holds 3 packets of 1000B
	for i := 0; i < 10; i++ {
		_ = n.Send("server", "client", 1000, i)
	}
	s.Run()
	// First packet enters service immediately (its bytes count toward the
	// backlog until served), so 3 queue, the rest drop.
	if sw.Drops == 0 {
		t.Fatal("no drops despite overflow")
	}
	if int(sw.Drops)+len(*got) != 10 {
		t.Errorf("drops %d + delivered %d != 10", sw.Drops, len(*got))
	}
	if n.Lost != sw.Drops {
		t.Errorf("network Lost %d != switch Drops %d", n.Lost, sw.Drops)
	}
}

func TestMultiHopAccumulatesDelay(t *testing.T) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	var at sim.Time
	n.AddNode("a", nil)
	n.AddNode("b", func(Packet) { at = s.Now() })
	w1 := n.AddSwitch("w1", 1e6, 1<<20)
	w2 := n.AddSwitch("w2", 1e6, 1<<20)
	n.SetRoute("a", "b", 30*time.Millisecond, w1, w2)
	_ = n.Send("a", "b", 2000, nil)
	s.Run()
	// 30ms propagation + 2ms service at each of two switches.
	if want := sim.At(34 * time.Millisecond); at != want {
		t.Errorf("two-hop delivery at %v, want %v", at, want)
	}
}

func TestCrossTrafficCongestsSwitch(t *testing.T) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	var deliveries []sim.Time
	n.AddNode("client", func(Packet) { deliveries = append(deliveries, s.Now()) })
	n.AddNode("server", nil)
	n.AddNode("noise", nil)
	sw := n.AddSwitch("sw", 1e6, 1<<20)
	n.SetRoute("server", "client", time.Millisecond, sw)
	n.SetRoute("noise", "client", time.Millisecond, sw)

	// Without congestion: a probe packet crosses in ~1.1ms.
	_ = n.Send("server", "client", 100, nil)
	s.RunFor(10 * time.Millisecond)
	base := deliveries[0] - 0

	// Congest: 95% utilization of the switch.
	n.StartCrossTraffic("noise", "client", 9500, 10*time.Millisecond)
	s.RunFor(time.Second)
	start := s.Now()
	_ = n.Send("server", "client", 100, nil)
	s.RunFor(100 * time.Millisecond)
	last := deliveries[len(deliveries)-1]
	congested := last - start
	if congested <= base {
		t.Errorf("congested transit %v not slower than base %v", congested.Duration(), base.Duration())
	}
	if sw.QueuedBytes(start) == 0 {
		t.Error("switch backlog empty despite 95% cross-traffic")
	}
}

func TestSwitchStatsServeAccounting(t *testing.T) {
	s := sim.New(1)
	n, sw, _ := testNet(s, 1e6, 1<<20)
	for i := 0; i < 5; i++ {
		_ = n.Send("server", "client", 200, nil)
	}
	s.Run()
	if sw.Arrivals != 5 || sw.BytesServed != 1000 {
		t.Errorf("arrivals=%d bytes=%d, want 5, 1000", sw.Arrivals, sw.BytesServed)
	}
	if n.Delivered != 5 {
		t.Errorf("Delivered = %d, want 5", n.Delivered)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	n.AddNode("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("x", nil)
}

func TestQueuedBytesDrainsOverTime(t *testing.T) {
	s := sim.New(1)
	n, sw, _ := testNet(s, 1e6, 1<<20)
	for i := 0; i < 10; i++ {
		_ = n.Send("server", "client", 1000, nil)
	}
	s.RunUntil(sim.At(10 * time.Millisecond)) // all arrived at switch, ~0 served... they arrived at t=10ms/3? prop split
	q1 := sw.QueuedBytes(s.Now())
	s.RunUntil(sim.At(14 * time.Millisecond))
	q2 := sw.QueuedBytes(s.Now())
	if q2 >= q1 && q1 > 0 {
		t.Errorf("backlog did not drain: %d then %d", q1, q2)
	}
	s.Run()
	if sw.QueuedBytes(s.Now()) != 0 {
		t.Errorf("backlog %d after drain, want 0", sw.QueuedBytes(s.Now()))
	}
}

// TestPerFlowStatistics: two flows share a drop-tail queue; what each
// source loses at the switch is what its destination never sees, and the
// switch's totals add up over both flows.
func TestPerFlowStatistics(t *testing.T) {
	s := sim.New(1)
	n := New(s, obs.Kit{})
	got := map[string]uint64{}
	n.AddNode("client", func(p Packet) { got[p.Src]++ })
	n.AddNode("server", nil)
	n.AddNode("noise", nil)
	sw := n.AddSwitch("sw", 1e6, 4000)
	n.SetRoute("server", "client", time.Millisecond, sw)
	n.SetRoute("noise", "client", time.Millisecond, sw)
	for i := 0; i < 5; i++ {
		_ = n.Send("server", "client", 500, nil)
	}
	for i := 0; i < 20; i++ {
		_ = n.Send("noise", "client", 1000, nil)
	}
	s.Run()
	if sw.Arrivals != 25 {
		t.Errorf("switch arrivals = %d, want 25", sw.Arrivals)
	}
	if lost := 25 - got["server"] - got["noise"]; lost != sw.Drops || n.Lost != sw.Drops {
		t.Errorf("per-flow losses %d, switch drops %d, network lost %d", lost, sw.Drops, n.Lost)
	}
	if got["noise"] == 20 {
		t.Error("burst through a 4000B queue produced no noise drops")
	}
	if served := 500*got["server"] + 1000*got["noise"]; served != sw.BytesServed {
		t.Errorf("delivered bytes %d != switch bytes served %d", served, sw.BytesServed)
	}
	if u := float64(sw.BytesServed) / (1e6 * s.Now().Duration().Seconds()); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}
