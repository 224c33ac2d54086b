package sched

import (
	"testing"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
)

// spin creates a CPU-bound process that burns the CPU in bursts of burst
// forever.
func spin(h *Host, name string, burst time.Duration) *Proc {
	var loop func(p *Proc)
	loop = func(p *Proc) { p.Use(burst, func() { loop(p) }) }
	return h.Spawn(name, func(p *Proc) { loop(p) })
}

func TestSingleProcGetsAllCPU(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	p := spin(h, "spin", 10*time.Millisecond)
	s.RunFor(10 * time.Second)
	if got := p.CPUTime(); got < 9900*time.Millisecond || got > 10*time.Second {
		t.Errorf("lone spinner got %v CPU of 10s", got)
	}
	if h.LoadAvg() < 0.1 {
		t.Errorf("load average stayed at %v with a spinner running", h.LoadAvg())
	}
}

func TestEqualPrioritySharing(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	a := spin(h, "a", 10*time.Millisecond)
	b := spin(h, "b", 10*time.Millisecond)
	s.RunFor(60 * time.Second)
	ta, tb := a.CPUTime(), b.CPUTime()
	sum := ta + tb
	if sum < 59*time.Second {
		t.Errorf("two spinners only used %v of 60s", sum)
	}
	ratio := float64(ta) / float64(tb)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unfair split between equal spinners: %v vs %v", ta, tb)
	}
}

func TestCPUBoundPriorityDecays(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	p := spin(h, "spin", 10*time.Millisecond)
	s.RunFor(5 * time.Second)
	if p.Priority() != 0 {
		t.Errorf("CPU-bound TS priority = %d after 5s, want decay to 0", p.Priority())
	}
}

func TestSleeperGetsBoosted(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	var sleeper *Proc
	var loop func()
	loop = func() {
		sleeper.Use(time.Millisecond, func() {
			sleeper.Sleep(50*time.Millisecond, loop)
		})
	}
	sleeper = h.Spawn("interactive", func(p *Proc) { loop() })
	spin(h, "hog", 10*time.Millisecond)
	s.RunFor(10 * time.Second)
	if sleeper.Priority() < 50 {
		t.Errorf("interactive priority = %d, want boosted near top", sleeper.Priority())
	}
	// The interactive process should run ~1ms of each ~51ms cycle despite
	// the hog: ~196 cycles in 10s.
	if got := sleeper.CPUTime(); got < 150*time.Millisecond {
		t.Errorf("interactive got only %v CPU alongside hog", got)
	}
}

func TestBoostGivesCPUShare(t *testing.T) {
	// The paper's core lever: raising a process's TS priority must raise
	// its CPU share under contention.
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	fav := spin(h, "favoured", 10*time.Millisecond)
	for i := 0; i < 4; i++ {
		spin(h, "load", 10*time.Millisecond)
	}
	s.RunFor(30 * time.Second)
	base := fav.CPUTime()
	if share := base.Seconds() / 30; share < 0.1 || share > 0.3 {
		t.Errorf("unboosted share = %.2f, want ~0.2", share)
	}
	fav.SetBoost(40)
	mark := fav.CPUTime()
	s.RunFor(30 * time.Second)
	boosted := fav.CPUTime() - mark
	if share := boosted.Seconds() / 30; share < 0.95 {
		t.Errorf("boosted share = %.2f, want ~1.0", share)
	}
}

func TestRTClassPreemptsTS(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	spin(h, "ts-hog", 10*time.Millisecond)
	var rt *Proc
	var loop func()
	loop = func() { rt.Use(5*time.Millisecond, func() { rt.Sleep(5*time.Millisecond, loop) }) }
	rt = h.Spawn("rt", func(p *Proc) { loop() }, AsClass(RT, 10))
	s.RunFor(10 * time.Second)
	// RT proc alternates 5ms on / 5ms off: should get ~50% of the CPU.
	if got := rt.CPUTime(); got < 4800*time.Millisecond {
		t.Errorf("RT process got %v of expected ~5s", got)
	}
}

func TestPreemptionOnWake(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	hog := spin(h, "hog", 100*time.Millisecond)
	var wakeAt, ranAt sim.Time
	h.Spawn("waker", func(p *Proc) {
		p.Sleep(3*time.Second, func() {
			wakeAt = s.Now()
			p.Use(time.Millisecond, func() {
				ranAt = s.Now()
				p.Exit()
			})
		})
	})
	s.RunFor(5 * time.Second)
	if hog.Preemptions() == 0 {
		t.Error("hog was never preempted by boosted waker")
	}
	latency := (ranAt - wakeAt).Duration()
	if latency > 2*time.Millisecond {
		t.Errorf("woken process waited %v; slpret boost should preempt the decayed hog immediately", latency)
	}
}

func TestExitReleasesCPUAndPages(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithMemory(1000))
	free0 := h.FreePages()
	var p *Proc
	p = h.Spawn("tmp", func(q *Proc) {
		q.Use(time.Millisecond, func() { q.Exit() })
	}, WithWorkingSet(200))
	if h.FreePages() != free0-200 {
		t.Fatalf("free pages after spawn = %d, want %d", h.FreePages(), free0-200)
	}
	s.RunFor(time.Second)
	if p.State() != Exited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	if h.FreePages() != free0 {
		t.Errorf("free pages after exit = %d, want %d", h.FreePages(), free0)
	}
	if h.Proc(p.PID()) != nil {
		t.Error("exited process still registered")
	}
}

func TestQueueBlockingRecv(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	q := NewQueue(10)
	var got []any
	h.Spawn("consumer", func(p *Proc) {
		var loop func(v any)
		loop = func(v any) {
			got = append(got, v)
			p.Use(time.Millisecond, func() { p.Recv(q, loop) })
		}
		p.Recv(q, loop)
	})
	s.After(10*time.Millisecond, func() { q.Push(1) })
	s.After(20*time.Millisecond, func() { q.Push(2); q.Push(3) })
	s.RunFor(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("consumer got %v, want [1 2 3]", got)
	}
	if q.Len() != 0 || q.Dropped() != 0 {
		t.Errorf("queue left len=%d dropped=%d, want both 0", q.Len(), q.Dropped())
	}
}

func TestQueueDropWhenFull(t *testing.T) {
	q := NewQueue(2)
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push(3) {
		t.Fatal("push beyond capacity succeeded")
	}
	if q.Dropped() != 1 || q.Len() != 2 {
		t.Errorf("dropped=%d len=%d, want 1, 2", q.Dropped(), q.Len())
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	q := NewQueue(0)
	var order []string
	mk := func(name string) {
		h.Spawn(name, func(p *Proc) {
			p.Recv(q, func(v any) {
				order = append(order, name)
				p.Exit()
			})
		})
	}
	mk("first")
	mk("second")
	s.After(time.Millisecond, func() { q.Push("x"); q.Push("y") })
	s.RunFor(time.Second)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("waiter wake order = %v", order)
	}
}

func TestMemoryPressureSlowsProcess(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithMemory(10000))
	done := 0
	var p *Proc
	var loop func()
	loop = func() {
		p.Use(10*time.Millisecond, func() {
			done++
			loop()
		})
	}
	p = h.Spawn("worker", func(q *Proc) { loop() }, WithWorkingSet(1000))
	s.RunFor(10 * time.Second)
	fullSpeed := done
	h.SetResident(p, 0) // fully paged out: pagePenalty slowdown
	done = 0
	s.RunFor(10 * time.Second)
	slowed := done
	wantMax := int(float64(fullSpeed)/(1+pagePenalty)) + 2
	if slowed > wantMax {
		t.Errorf("paged-out process completed %d bursts, want <= %d (full speed %d)", slowed, wantMax, fullSpeed)
	}
	h.SetResident(p, 1000)
	done = 0
	s.RunFor(10 * time.Second)
	if done < fullSpeed-5 {
		t.Errorf("restored process completed %d bursts, want ~%d", done, fullSpeed)
	}
}

func TestSetResidentBoundedByFreePages(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{}, WithMemory(100))
	p := spin(h, "p", time.Millisecond)
	got := h.SetResident(p, 500)
	if got != 100 {
		t.Errorf("SetResident over-allocated: %d of 100 physical", got)
	}
	if h.FreePages() != 0 {
		t.Errorf("free pages = %d, want 0", h.FreePages())
	}
	got = h.SetResident(p, 40)
	if got != 40 || h.FreePages() != 60 {
		t.Errorf("shrink: resident=%d free=%d, want 40, 60", got, h.FreePages())
	}
}

func TestLoadAverageTracksSpinners(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	for i := 0; i < 5; i++ {
		spin(h, "l", 10*time.Millisecond)
	}
	s.RunFor(5 * time.Minute)
	if la := h.LoadAvg(); la < 4.5 || la > 5.5 {
		t.Errorf("load average = %.2f with 5 spinners, want ~5", la)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() (time.Duration, uint64) {
		s := sim.New(99)
		h := NewHost(s, "h", obs.Kit{})
		p := spin(h, "a", 7*time.Millisecond)
		spin(h, "b", 13*time.Millisecond)
		var sl *Proc
		var loop func()
		loop = func() { sl.Use(2*time.Millisecond, func() { sl.Sleep(11*time.Millisecond, loop) }) }
		sl = h.Spawn("c", func(q *Proc) { loop() })
		s.RunFor(30 * time.Second)
		return p.CPUTime(), s.Fired()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("non-deterministic schedule: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestUseZeroDuration(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	ran := false
	h.Spawn("z", func(p *Proc) {
		p.Use(0, func() {
			ran = true
			p.Exit()
		})
	})
	s.RunFor(time.Millisecond)
	if !ran {
		t.Error("zero-duration Use continuation never ran")
	}
}

func TestContinuationMustIssueStep(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	h.Spawn("bad", func(p *Proc) {
		p.Use(time.Millisecond, func() {
			// deliberately issue no step
		})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("step-less continuation did not panic")
		}
	}()
	s.RunFor(time.Second)
}

func TestBusyTimeAccounting(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	spin(h, "p", 10*time.Millisecond)
	s.RunFor(10 * time.Second)
	if busy := h.BusyTime(); busy < 9900*time.Millisecond || busy > 10*time.Second {
		t.Errorf("BusyTime = %v, want ~10s", busy)
	}
}

func TestExitWhileBlockedRemovesWaiter(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	q := NewQueue(0)
	var blocked *Proc
	blocked = h.Spawn("blocked", func(p *Proc) {
		p.Recv(q, func(any) { t.Error("exited waiter received a value"); p.Exit() })
	})
	s.After(time.Millisecond, func() { blocked.Exit() })
	s.After(2*time.Millisecond, func() { q.Push("v") })
	s.RunFor(time.Second)
	if q.Len() != 1 {
		t.Errorf("queue len = %d; push after waiter exit should queue the value", q.Len())
	}
}

func TestSetClassMovesBetweenClasses(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", obs.Kit{})
	p := spin(h, "p", 10*time.Millisecond)
	spin(h, "other", 10*time.Millisecond)
	s.RunFor(time.Second)
	p.SetClass(RT, 5)
	if p.Class() != RT {
		t.Fatalf("class = %v, want RT", p.Class())
	}
	mark := p.CPUTime()
	s.RunFor(10 * time.Second)
	got := p.CPUTime() - mark
	if got < 9900*time.Millisecond {
		t.Errorf("RT spinner got %v of 10s", got)
	}
	p.SetClass(TS, 29)
	if p.Class() != TS || p.Priority() != 29 {
		t.Errorf("after return to TS: class=%v prio=%d", p.Class(), p.Priority())
	}
}
