package sched

import (
	"testing"
	"testing/quick"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
)

func TestSMPTwoCPUsRunTwoSpinners(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithCPUs(2))
	a := spin(h, "a", 10*time.Millisecond)
	b := spin(h, "b", 10*time.Millisecond)
	s.RunFor(10 * time.Second)
	if ta := a.CPUTime(); ta < 9900*time.Millisecond {
		t.Errorf("spinner a got %v on a 2-CPU host", ta)
	}
	if tb := b.CPUTime(); tb < 9900*time.Millisecond {
		t.Errorf("spinner b got %v on a 2-CPU host", tb)
	}
	if busy := h.BusyTime(); busy < 19800*time.Millisecond {
		t.Errorf("2-CPU busy time = %v of 20s", busy)
	}
}

func TestSMPFairShareAcrossCPUs(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithCPUs(2))
	procs := make([]*Proc, 6)
	for i := range procs {
		procs[i] = spin(h, "p", 10*time.Millisecond)
	}
	s.RunFor(60 * time.Second)
	// 6 spinners on 2 CPUs: each should get ~20s of 120 CPU-seconds.
	for i, p := range procs {
		share := p.CPUTime().Seconds()
		if share < 16 || share > 24 {
			t.Errorf("proc %d got %.1fs of expected ~20s", i, share)
		}
	}
}

func TestSMPPreemptsLowestPriorityCPU(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithCPUs(2))
	low := spin(h, "low", 10*time.Millisecond)
	mid := spin(h, "mid", 10*time.Millisecond)
	s.RunFor(5 * time.Second) // both decay to 0 and occupy both CPUs
	mid.SetBoost(10)
	// An RT process must displace the lowest-priority running proc (low
	// or mid; with mid boosted, low must be the victim).
	var rt *Proc
	rt = h.Spawn("rt", func(p *Proc) {
		var loop func()
		loop = func() { p.Use(10*time.Millisecond, func() { loop() }) }
		loop()
	}, AsClass(RT, 5))
	mark := s.Now()
	lowT, midT := low.CPUTime(), mid.CPUTime()
	s.RunFor(10 * time.Second)
	elapsed := (s.Now() - mark).Duration().Seconds()
	gotRT := rt.CPUTime().Seconds()
	gotMid := (mid.CPUTime() - midT).Seconds()
	gotLow := (low.CPUTime() - lowT).Seconds()
	if gotRT < elapsed*0.95 {
		t.Errorf("RT got %.1fs of %.1fs", gotRT, elapsed)
	}
	if gotMid < elapsed*0.95 {
		t.Errorf("boosted TS proc got %.1fs of %.1fs alongside RT", gotMid, elapsed)
	}
	if gotLow > elapsed*0.1 {
		t.Errorf("lowest-priority proc still got %.1fs on a saturated 2-CPU host", gotLow)
	}
}

func TestWithCPUsValidation(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("WithCPUs(0) did not panic")
		}
	}()
	NewHost(s, "h", obs.Kit{}, WithCPUs(0))
}

// Property: the scheduler is work-conserving and never over-delivers.
// For any set of spinners on any CPU count, total CPU time handed out
// equals min(nproc, ncpu) * elapsed (within rounding).
func TestPropertyWorkConservation(t *testing.T) {
	prop := func(nproc, ncpu uint8) bool {
		np := int(nproc%6) + 1
		nc := int(ncpu%4) + 1
		s := sim.New(int64(np*10 + nc))
		h := NewHost(s, "h", obs.Kit{}, WithCPUs(nc))
		procs := make([]*Proc, np)
		for i := range procs {
			procs[i] = spin(h, "p", 7*time.Millisecond)
		}
		s.RunFor(20 * time.Second)
		var total time.Duration
		for _, p := range procs {
			total += p.CPUTime()
		}
		m := np
		if nc < np {
			m = nc
		}
		expect := time.Duration(m) * 20 * time.Second
		diff := total - expect
		if diff < 0 {
			diff = -diff
		}
		return diff < 100*time.Millisecond
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPU time is conserved under arbitrary boosts — changing
// priorities redistributes time but never creates or destroys it.
func TestPropertyBoostConservation(t *testing.T) {
	prop := func(boosts []int8) bool {
		if len(boosts) == 0 || len(boosts) > 5 {
			return true
		}
		s := sim.New(99)
		h := NewHost(s, "h", obs.Kit{})
		procs := make([]*Proc, len(boosts))
		for i := range procs {
			procs[i] = spin(h, "p", 10*time.Millisecond)
		}
		s.RunFor(5 * time.Second)
		for i, b := range boosts {
			procs[i].SetBoost(int(b))
		}
		s.RunFor(30 * time.Second)
		var total time.Duration
		for _, p := range procs {
			total += p.CPUTime()
		}
		diff := total - 35*time.Second
		if diff < 0 {
			diff = -diff
		}
		return diff < 100*time.Millisecond
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
