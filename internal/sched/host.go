// Package sched simulates per-host CPU scheduling and memory residency —
// the operating-system substrate whose allocation knobs (time-sharing
// priorities, real-time cycles, resident pages) the paper's resource
// managers manipulate.
//
// The scheduler follows the shape of the Solaris time-sharing class used
// by the prototype: per-priority round-robin run queues, a dispatch table
// that grants long quanta at low priorities, priority decay on quantum
// expiry and priority boost on sleep return, plus a fixed-priority
// real-time class that dispatches ahead of all time-sharing work.
package sched

import (
	"fmt"
	"time"

	"softqos/internal/obs"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// pagePenalty is the slowdown multiplier applied to a process whose
// resident set has been completely paged out.
const pagePenalty = 4.0

// Option configures a Host.
type Option func(*Host)

// WithCPUs sets the number of CPUs (default 1, as in the prototype's
// workstation).
func WithCPUs(n int) Option {
	return func(h *Host) {
		if n < 1 {
			panic("sched: host needs at least one CPU")
		}
		h.ncpu = n
	}
}

// WithMemory sets the number of physical pages available to processes.
func WithMemory(pages int) Option {
	return func(h *Host) { h.physPages = pages }
}

// Host is a simulated machine: CPUs, run queues, memory and the processes
// running on it.
type Host struct {
	sim  *sim.Simulator
	name string
	ncpu int

	ready      [numPriority][]*Proc
	readyCount int
	running    []*Proc

	procs   map[int]*Proc
	nextPID int

	physPages int
	freePages int

	load loadTracker

	busy time.Duration // cumulative CPU busy time across all CPUs

	metrics *hostSchedMetrics
}

// hostSchedMetrics holds the scheduler's pre-resolved metric handles.
type hostSchedMetrics struct {
	dispatches      *telemetry.Counter // context switches onto a CPU
	preemptions     *telemetry.Counter
	priorityChanges *telemetry.Counter // management-driven SetBoost/SetClass
}

// NewHost creates a host attached to the simulator. Load-average sampling
// starts immediately. kit's registry gets counters for context switches,
// preemptions and management priority changes, plus pull gauges for
// run-queue length and load average, all under "sched.<name>.*"; the
// tracer and event log are unused.
func NewHost(s *sim.Simulator, name string, kit obs.Kit, opts ...Option) *Host {
	h := &Host{
		sim:       s,
		name:      name,
		ncpu:      1,
		physPages: 1 << 16,
		procs:     make(map[int]*Proc),
		nextPID:   100,
	}
	for _, o := range opts {
		o(h)
	}
	h.freePages = h.physPages
	h.load.init(s, h)
	if reg := kit.Metrics; reg != nil {
		prefix := "sched." + name + "."
		h.metrics = &hostSchedMetrics{
			dispatches:      reg.Counter(prefix + "dispatches"),
			preemptions:     reg.Counter(prefix + "preemptions"),
			priorityChanges: reg.Counter(prefix + "priority_changes"),
		}
		reg.GaugeFunc(prefix+"run_queue", func() float64 { return float64(h.RunQueueLen()) })
		reg.GaugeFunc(prefix+"load_avg", func() float64 { return h.LoadAvg() })
	}
	return h
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Sim returns the simulator the host is attached to.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// LoadAvg returns the exponentially damped one-minute load average.
func (h *Host) LoadAvg() float64 { return h.load.avg }

// RunQueueLen returns the instantaneous number of runnable plus running
// processes (the quantity the load average damps).
func (h *Host) RunQueueLen() int { return h.readyCount + len(h.running) }

// BusyTime returns cumulative CPU busy time across all CPUs, including
// partially executed slices. Callers measuring utilization over a window
// take deltas: (busy2-busy1)/(t2-t1)/CPUs.
func (h *Host) BusyTime() time.Duration {
	busy := h.busy
	now := h.sim.Now()
	for _, p := range h.running {
		busy += (now - p.dispatchedAt).Duration()
	}
	return busy
}

// FreePages returns unallocated physical pages.
func (h *Host) FreePages() int { return h.freePages }

// PhysPages returns total physical pages.
func (h *Host) PhysPages() int { return h.physPages }

// Proc returns the process with the given pid, or nil.
func (h *Host) Proc(pid int) *Proc { return h.procs[pid] }

// SpawnOption configures a process at spawn time.
type SpawnOption func(*Proc)

// AsClass spawns the process in class c at class-local priority prio.
func AsClass(c Class, prio int) SpawnOption {
	return func(p *Proc) { p.class = c; p.dyn = clampTS(prio) }
}

// WithWorkingSet declares the process's desired resident pages; as many as
// fit are made resident at spawn.
func WithWorkingSet(pages int) SpawnOption {
	return func(p *Proc) { p.workingSet = pages }
}

// Spawn creates a process and invokes start (as the process's first
// continuation) at the current instant. start must issue a step.
func (h *Host) Spawn(name string, start func(*Proc), opts ...SpawnOption) *Proc {
	p := &Proc{
		host:  h,
		pid:   h.nextPID,
		name:  name,
		class: TS,
		dyn:   29, // middle of the TS range, like a fresh Solaris process
		state: Deciding,
	}
	h.nextPID++
	for _, o := range opts {
		o(p)
	}
	if p.workingSet > 0 {
		p.resident = h.claimPages(p.workingSet)
	}
	h.procs[p.pid] = p
	p.resetQuantum()
	p.scheduleNow(func() { start(p) })
	return p
}

// SetResident adjusts a process's resident pages (the memory manager's
// lever). Growth is limited by free pages; shrink returns pages to the
// pool. It returns the resulting resident size.
func (h *Host) SetResident(p *Proc, pages int) int {
	if pages < 0 {
		pages = 0
	}
	delta := pages - p.resident
	if delta > 0 {
		got := h.claimPages(delta)
		p.resident += got
	} else if delta < 0 {
		h.releasePages(-delta)
		p.resident = pages
	}
	if p.state == Running {
		// Re-dispatch so the new paging slowdown takes effect and the
		// partial slice is accounted under the old factor.
		h.unplug(p)
		h.enqueueFront(p)
		h.rebalance()
	}
	return p.resident
}

func (h *Host) claimPages(want int) int {
	if want > h.freePages {
		want = h.freePages
	}
	h.freePages -= want
	return want
}

func (h *Host) releasePages(n int) { h.freePages += n }

// enqueue appends p to the ready bucket for its current global priority.
func (h *Host) enqueue(p *Proc) {
	p.state = Runnable
	p.readyPrio = p.globalPriority()
	h.ready[p.readyPrio] = append(h.ready[p.readyPrio], p)
	h.readyCount++
}

// enqueueFront puts a preempted process at the head of its bucket so it
// resumes before queue-mates that have not run yet.
func (h *Host) enqueueFront(p *Proc) {
	p.state = Runnable
	p.readyPrio = p.globalPriority()
	h.ready[p.readyPrio] = append([]*Proc{p}, h.ready[p.readyPrio]...)
	h.readyCount++
}

// removeReady removes p from its ready bucket.
func (h *Host) removeReady(p *Proc) {
	q := h.ready[p.readyPrio]
	for i, other := range q {
		if other == p {
			h.ready[p.readyPrio] = append(q[:i:i], q[i+1:]...)
			h.readyCount--
			return
		}
	}
	panic(fmt.Sprintf("sched: %s not found in ready queue %d", p.name, p.readyPrio))
}

func (h *Host) highestReady() int {
	if h.readyCount == 0 {
		return -1
	}
	for prio := numPriority - 1; prio >= 0; prio-- {
		if len(h.ready[prio]) > 0 {
			return prio
		}
	}
	return -1
}

// rebalance ensures the CPUs run the highest-priority runnable processes,
// preempting as needed. It is called after every state change.
func (h *Host) rebalance() {
	for {
		hp := h.highestReady()
		if hp < 0 {
			return
		}
		if len(h.running) < h.ncpu {
			h.dispatch(h.popReady(hp))
			continue
		}
		// Find the lowest-priority running process.
		low := 0
		for i, p := range h.running {
			if p.globalPriority() < h.running[low].globalPriority() {
				low = i
			}
		}
		victim := h.running[low]
		if hp <= victim.globalPriority() {
			return
		}
		h.unplug(victim)
		victim.preemptions++
		if h.metrics != nil {
			h.metrics.preemptions.Inc()
		}
		h.enqueueFront(victim)
		h.dispatch(h.popReady(hp))
	}
}

func (h *Host) popReady(prio int) *Proc {
	q := h.ready[prio]
	p := q[0]
	h.ready[prio] = q[1:]
	h.readyCount--
	return p
}

// dispatch places p on a CPU and schedules the end of its slice (burst
// completion or quantum expiry, whichever comes first).
func (h *Host) dispatch(p *Proc) {
	p.state = Running
	if h.metrics != nil {
		h.metrics.dispatches.Inc()
	}
	p.dispatchedAt = h.sim.Now()
	h.running = append(h.running, p)

	slice := p.inflate(p.remainingWork)
	p.sliceFinishes = true
	if p.quantumLeft < slice {
		slice = p.quantumLeft
		p.sliceFinishes = false
	}
	p.sliceEnd = h.sim.After(slice, func() { h.sliceExpired(p) })
}

// unplug removes p from its CPU, accounting for the work done. The caller
// decides p's next state.
func (h *Host) unplug(p *Proc) {
	elapsed := (h.sim.Now() - p.dispatchedAt).Duration()
	work := p.deflate(elapsed)
	if work > p.remainingWork {
		work = p.remainingWork
	}
	p.remainingWork -= work
	p.cpuTime += work
	p.quantumLeft -= elapsed
	if p.quantumLeft < 0 {
		p.quantumLeft = 0
	}
	h.busy += elapsed
	p.sliceEnd.Cancel()
	for i, other := range h.running {
		if other == p {
			h.running = append(h.running[:i], h.running[i+1:]...)
			break
		}
	}
}

// sliceExpired handles the end of a dispatch slice.
func (h *Host) sliceExpired(p *Proc) {
	finished := p.sliceFinishes
	h.unplug(p)
	if finished {
		// The slice was scheduled to complete the burst: clear any
		// sub-nanosecond residue left by inflate/deflate rounding under
		// paging slowdowns (otherwise a 1 ns remainder re-dispatches
		// forever).
		p.cpuTime += p.remainingWork
		p.remainingWork = 0
	}
	expired := p.quantumLeft <= 0
	if expired {
		// Quantum exhausted (whether or not the burst also completed):
		// TS priority decays and a fresh quantum is granted.
		if p.class == TS {
			p.dyn = tsExpire(p.dyn)
		}
		p.resetQuantum()
	}
	if p.remainingWork > 0 {
		// Burst unfinished: re-queue behind (new-)priority peers.
		h.enqueue(p)
		h.rebalance()
		return
	}
	// Burst complete: run the continuation, which issues the next step.
	// Only a process with quantum remaining may continue in place; one
	// whose quantum expired at the burst boundary yields like any other
	// quantum expiry.
	p.remainingWork = 0
	p.state = Deciding
	then := p.then
	p.then = nil
	p.justRan = !expired
	then()
	p.justRan = false
	p.checkDecided()
	if !p.pendingNow {
		h.rebalance()
	}
	// With an immediate continuation pending, the CPU decision is
	// deferred to that continuation (same virtual instant): otherwise a
	// queued process would steal the slot from a decoder doing a
	// zero-cost step between bursts.
}
