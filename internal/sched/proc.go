package sched

import (
	"fmt"
	"time"

	"softqos/internal/sim"
)

// State is the life-cycle state of a simulated process.
type State int

const (
	// Deciding means the process is between steps: a continuation is
	// executing (or about to) and must issue Use/Sleep/Recv/Exit.
	Deciding State = iota
	// Runnable means the process waits on a run queue for a CPU.
	Runnable
	// Running means the process is on a CPU.
	Running
	// Sleeping means the process waits for a timer.
	Sleeping
	// Blocked means the process waits for a message on a Queue.
	Blocked
	// Exited means the process has terminated.
	Exited
)

func (s State) String() string {
	switch s {
	case Deciding:
		return "deciding"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Sleeping:
		return "sleeping"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	default:
		return "state?"
	}
}

// Proc is a simulated process. Its behaviour is expressed in
// continuation-passing style: application code calls Use, Sleep, Recv or
// Exit, each of which takes a continuation invoked when the step finishes.
// All methods must be called from within simulation events (the simulation
// is single-threaded).
type Proc struct {
	host *Host
	pid  int
	name string

	class Class
	dyn   int // TS dynamic priority or RT fixed priority (0..59)
	boost int // management-set priority offset (TS only)

	state State

	// Current CPU burst.
	remainingWork time.Duration // pure CPU work left
	then          func()        // continuation after the burst
	quantumLeft   time.Duration
	readyPrio     int // bucket index while Runnable

	// Dispatch bookkeeping while Running.
	dispatchedAt  sim.Time
	sliceEnd      sim.EventID
	sliceFinishes bool // the scheduled slice completes the burst

	// Sleep/Recv bookkeeping.
	wakeEv     sim.EventID
	recvQ      *Queue
	recvThen   func(any)
	pendingNow bool // an immediate (zero-CPU) continuation is scheduled
	justRan    bool // continuation runs right after a completed burst

	// Memory model.
	workingSet int // pages the process wants resident
	resident   int // pages actually resident

	// Accounting.
	cpuTime     time.Duration
	preemptions int
}

// PID returns the process identifier, unique within its host.
func (p *Proc) PID() int { return p.pid }

// State returns the current life-cycle state.
func (p *Proc) State() State { return p.state }

// Class returns the scheduling class.
func (p *Proc) Class() Class { return p.class }

// Priority returns the current class-local priority (0..59).
func (p *Proc) Priority() int { return p.dyn }

// Boost returns the management-set TS priority offset.
func (p *Proc) Boost() int { return p.boost }

// CPUTime returns cumulative CPU time consumed, including the portion of
// any burst currently executing.
func (p *Proc) CPUTime() time.Duration {
	t := p.cpuTime
	if p.state == Running {
		elapsed := (p.host.sim.Now() - p.dispatchedAt).Duration()
		t += p.deflate(elapsed)
	}
	return t
}

// Preemptions returns how many times the process was preempted.
func (p *Proc) Preemptions() int { return p.preemptions }

// WorkingSet returns the number of pages the process wants resident.
func (p *Proc) WorkingSet() int { return p.workingSet }

// SetWorkingSet declares the process's desired resident pages after
// spawn (e.g. when the memory footprint becomes known at run time).
func (p *Proc) SetWorkingSet(pages int) {
	if pages < 0 {
		pages = 0
	}
	p.workingSet = pages
}

// Resident returns the number of pages currently resident.
func (p *Proc) Resident() int { return p.resident }

// globalPriority maps class and priority to the single dispatch scale.
func (p *Proc) globalPriority() int {
	if p.class == RT {
		return rtBase + clampTS(p.dyn)
	}
	return clampTS(p.dyn + p.boost)
}

// slowFactor is the CPU-time inflation caused by paging when the resident
// set is smaller than the working set (memory pressure model: a fully
// paged-out process runs 1+pagePenalty times slower).
func (p *Proc) slowFactor() float64 {
	if p.workingSet <= 0 || p.resident >= p.workingSet {
		return 1
	}
	deficit := 1 - float64(p.resident)/float64(p.workingSet)
	return 1 + pagePenalty*deficit
}

// inflate converts pure CPU work to wall time under the current paging
// slowdown; deflate is the inverse used when accounting partial bursts.
func (p *Proc) inflate(work time.Duration) time.Duration {
	return time.Duration(float64(work) * p.slowFactor())
}

func (p *Proc) deflate(wall time.Duration) time.Duration {
	return time.Duration(float64(wall) / p.slowFactor())
}

// Use consumes d of CPU time, then invokes then. A non-positive d invokes
// then at the current instant without competing for the CPU.
func (p *Proc) Use(d time.Duration, then func()) {
	p.mustBeDeciding("Use")
	if d <= 0 {
		p.scheduleNow(then)
		return
	}
	p.remainingWork = d
	p.then = then
	if p.quantumLeft <= 0 {
		p.resetQuantum()
	}
	if p.justRan {
		// A process that finished a burst and immediately needs more CPU
		// never yielded: it resumes ahead of its queue-mates with its
		// remaining quantum, as on a real kernel where a computation is
		// only rescheduled at quantum expiry or when it blocks.
		p.host.enqueueFront(p)
	} else {
		p.host.enqueue(p)
	}
	p.host.rebalance()
}

// Sleep suspends the process for d of virtual time, then invokes then.
// Returning from sleep boosts a TS process's dynamic priority (slpret).
func (p *Proc) Sleep(d time.Duration, then func()) {
	p.mustBeDeciding("Sleep")
	if d <= 0 {
		// A zero sleep is not a real sleep: no priority boost.
		p.scheduleNow(then)
		return
	}
	p.state = Sleeping
	p.wakeEv = p.host.sim.After(d, func() {
		p.applySleepReturn()
		p.state = Deciding
		then()
		p.checkDecided()
	})
}

// Recv waits for a value from q, then invokes then with it. If a value is
// already queued it is delivered at the current instant with no priority
// boost; a process that actually blocks receives the slpret boost on wake.
func (p *Proc) Recv(q *Queue, then func(any)) {
	p.mustBeDeciding("Recv")
	if v, ok := q.pop(); ok {
		p.scheduleNow(func() { then(v) })
		return
	}
	p.state = Blocked
	p.recvQ = q
	p.recvThen = then
	q.addWaiter(p)
}

// deliver hands a queued value to a blocked process.
func (p *Proc) deliver(v any) {
	p.recvQ = nil
	then := p.recvThen
	p.recvThen = nil
	p.applySleepReturn()
	p.state = Deciding
	then(v)
	p.checkDecided()
}

// Exit terminates the process and releases its resident pages.
func (p *Proc) Exit() {
	if p.state == Exited {
		return
	}
	switch p.state {
	case Running:
		p.host.unplug(p)
	case Runnable:
		p.host.removeReady(p)
	case Sleeping:
		p.wakeEv.Cancel()
	case Blocked:
		p.recvQ.removeWaiter(p)
		p.recvQ = nil
		p.recvThen = nil
	}
	p.state = Exited
	p.host.releasePages(p.resident)
	p.resident = 0
	delete(p.host.procs, p.pid)
	p.host.rebalance()
}

// SetBoost sets the management priority offset for a TS process (the
// paper's CPU manager lever: manipulate time-sharing priorities). The
// effective priority is clamped to the TS range.
func (p *Proc) SetBoost(b int) {
	if p.boost == b || p.state == Exited {
		return
	}
	p.boost = b
	if p.host.metrics != nil {
		p.host.metrics.priorityChanges.Inc()
	}
	p.reprioritize()
}

// SetClass moves the process to class c at class-local priority prio (the
// paper's alternative lever: allocate real-time CPU cycles).
func (p *Proc) SetClass(c Class, prio int) {
	if p.state == Exited {
		return
	}
	p.class = c
	p.dyn = clampTS(prio)
	if p.host.metrics != nil {
		p.host.metrics.priorityChanges.Inc()
	}
	p.reprioritize()
}

// reprioritize re-seats the process after an external priority change.
func (p *Proc) reprioritize() {
	switch p.state {
	case Runnable:
		p.host.removeReady(p)
		p.host.enqueue(p)
		p.host.rebalance()
	case Running:
		// A demotion may allow a ready process to preempt; a promotion
		// never needs action while already on CPU.
		p.host.rebalance()
	}
}

func (p *Proc) applySleepReturn() {
	if p.class == TS {
		p.dyn = tsSleepReturn(p.dyn)
	}
	p.resetQuantum()
}

func (p *Proc) resetQuantum() {
	if p.class == RT {
		p.quantumLeft = rtQuantum
	} else {
		p.quantumLeft = tsQuantum(clampTS(p.dyn + p.boost))
	}
}

func (p *Proc) mustBeDeciding(op string) {
	if p.state != Deciding {
		panic(fmt.Sprintf("sched: %s.%s called in state %v", p.name, op, p.state))
	}
}

// scheduleNow runs a continuation at the current instant without occupying
// a CPU, used for zero-cost steps (empty Use, non-blocking Recv, zero
// Sleep). A process that was continuing in place (fresh off a completed
// burst with quantum remaining) keeps that right across the zero-cost
// step: a decoder doing a non-blocking read between frames has not
// yielded the CPU.
func (p *Proc) scheduleNow(then func()) {
	p.pendingNow = true
	wasContinuing := p.justRan
	p.host.sim.Schedule(p.host.sim.Now(), func() {
		p.pendingNow = false
		if p.state != Deciding {
			return // exited in the meantime
		}
		p.justRan = wasContinuing
		then()
		p.justRan = false
		p.checkDecided()
		p.host.rebalance()
	})
}

// checkDecided panics if a continuation returned without issuing a next
// step; that is always a bug in the process program.
func (p *Proc) checkDecided() {
	if p.state == Deciding && !p.pendingNow {
		panic(fmt.Sprintf("sched: process %s continuation issued no step (Use/Sleep/Recv/Exit)", p.name))
	}
}
