package loadgen

import (
	"testing"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

func TestSpinConsumesFullCPU(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	p := Spin(h, "spin")
	s.RunFor(10 * time.Second)
	if got := p.CPUTime(); got < 9900*time.Millisecond {
		t.Errorf("spinner used %v of 10s", got)
	}
}

func TestDutyConsumesFraction(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	p := Duty(h, "duty", 0.3, time.Second)
	s.RunFor(60 * time.Second)
	got := p.CPUTime().Seconds() / 60
	if got < 0.25 || got > 0.35 {
		t.Errorf("30%% duty process used %.2f of the CPU", got)
	}
}

func TestDutyRejectsBadFractions(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	for _, duty := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Duty(%v) did not panic", duty)
				}
			}()
			Duty(h, "bad", duty, time.Second)
		}()
	}
}

func TestOfferedReachesTargetLoad(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	procs := Offered(h, 3.5)
	if len(procs) != 4 { // 3 spinners + 1 fractional duty
		t.Fatalf("Offered(3.5) spawned %d processes", len(procs))
	}
	s.RunFor(5 * time.Minute)
	// Three spinners always runnable plus a 50% duty process: the damped
	// load average converges near 3.5.
	if la := h.LoadAvg(); la < 3.0 || la > 4.0 {
		t.Errorf("load average = %.2f, want ~3.5", la)
	}
}

func TestOfferedZero(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	if procs := Offered(h, 0); len(procs) != 0 {
		t.Errorf("Offered(0) spawned %d processes", len(procs))
	}
	defer func() {
		if recover() == nil {
			t.Error("Offered(-1) did not panic")
		}
	}()
	Offered(h, -1)
}

func TestProfilePhases(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	Profile(h, []Phase{
		{Load: 4, For: 30 * time.Second},
		{Load: 0, For: 30 * time.Second},
		{Load: 2, For: 30 * time.Second},
	})
	s.RunFor(29 * time.Second)
	if n := h.RunQueueLen(); n != 4 {
		t.Errorf("phase 1 run queue = %d, want 4", n)
	}
	s.RunFor(15 * time.Second) // t=44s: idle phase
	if n := h.RunQueueLen(); n != 0 {
		t.Errorf("phase 2 run queue = %d, want 0", n)
	}
	s.RunFor(30 * time.Second) // t=74s: phase 3
	if n := h.RunQueueLen(); n != 2 {
		t.Errorf("phase 3 run queue = %d, want 2", n)
	}
	s.RunFor(30 * time.Second) // t=104s: profile ended, all exited
	if n := h.RunQueueLen(); n != 0 {
		t.Errorf("after profile run queue = %d, want 0", n)
	}
}

func TestProfileEmpty(t *testing.T) {
	s := sim.New(1)
	h := sched.NewHost(s, "h", obs.Kit{})
	Profile(h, nil) // must not panic
	s.RunFor(time.Second)
}
