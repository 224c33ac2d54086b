package webapp

import (
	"testing"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

func TestServerKeepsUpUncontended(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	srv := Start(h, Config{ArrivalRate: 50, ServiceCost: 8 * time.Millisecond})
	s.RunFor(30 * time.Second)
	if srv.Served < 1480 || srv.Served > 1500 {
		t.Errorf("served %d of ~1500", srv.Served)
	}
	if lat := srv.Latency(); lat > 12*time.Millisecond {
		t.Errorf("uncontended latency = %v", lat)
	}
	if srv.Backlog() > 1 {
		t.Errorf("backlog = %d", srv.Backlog())
	}
}

func TestServerLatencyGrowsWithBacklog(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	// Demand 1.5 CPUs: the queue must grow and latency with it.
	srv := Start(h, Config{ArrivalRate: 100, ServiceCost: 15 * time.Millisecond, Backlog: 64})
	s.RunFor(30 * time.Second)
	if srv.Latency() < 300*time.Millisecond {
		t.Errorf("overloaded latency = %v, want large", srv.Latency())
	}
	if srv.Backlog() < 60 {
		t.Errorf("backlog = %d, want near capacity", srv.Backlog())
	}
	if srv.Queue.Dropped() == 0 {
		t.Error("no drops despite sustained overload")
	}
}

func TestOnServedProbeAndRateChange(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	srv := Start(h, Config{ArrivalRate: 20})
	var latencies []time.Duration
	srv.OnServed = func(_ Request, lat time.Duration) { latencies = append(latencies, lat) }
	s.RunFor(5 * time.Second)
	n1 := len(latencies)
	if n1 < 95 || n1 > 100 {
		t.Errorf("probe fired %d times in 5s at 20/s", n1)
	}
	srv.SetRate(100)
	s.RunFor(5 * time.Second)
	if n2 := len(latencies) - n1; n2 < 480 {
		t.Errorf("after SetRate(100): %d served in 5s", n2)
	}
	srv.StopLoad()
	s.RunFor(2 * time.Second)
	if srv.Backlog() != 0 {
		t.Errorf("backlog %d after load stop", srv.Backlog())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ArrivalRate != 50 || c.ServiceCost != 8*time.Millisecond || c.Backlog != 128 {
		t.Errorf("defaults = %+v", c)
	}
}
