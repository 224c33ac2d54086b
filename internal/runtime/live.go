package runtime

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Adjustment is one resource-manager action applied to a live process,
// surfaced to the embedding daemon (which applies it to the real OS
// process, e.g. via setpriority/mlock wrappers).
type Adjustment struct {
	PID    int
	What   string // "boost", "class", "resident"
	Value  int    // boost offset, class priority, or resident pages
	RT     bool   // for "class": real-time class granted
	Before int    // previous value of the adjusted knob
}

// LiveProc is a ProcHandle for a real OS process. The resource managers
// act on it exactly as they act on a simulated process; every change is
// recorded and reported through the host's OnAdjust hook instead of being
// applied to a simulator. CPU time and liveness may be wired to real
// observations via SetCPUTimeFunc/SetExited.
type LiveProc struct {
	pid int

	mu         sync.Mutex
	alive      bool
	boost      int
	rt         bool
	prio       int
	workingSet int
	resident   int
	cpuTimeFn  func() time.Duration
	onAdjust   func(Adjustment)
}

// PID returns the OS process identifier.
func (p *LiveProc) PID() int { return p.pid }

// Alive reports whether the process is still considered running.
func (p *LiveProc) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// SetExited marks the process dead; statistics stop being reported.
func (p *LiveProc) SetExited() {
	p.mu.Lock()
	p.alive = false
	p.mu.Unlock()
}

// SetCPUTimeFunc wires the handle to a real CPU-time observation (e.g.
// parsed from /proc/<pid>/stat by the embedding daemon).
func (p *LiveProc) SetCPUTimeFunc(fn func() time.Duration) {
	p.mu.Lock()
	p.cpuTimeFn = fn
	p.mu.Unlock()
}

// CPUTime returns the observed CPU time, or zero when unwired.
func (p *LiveProc) CPUTime() time.Duration {
	p.mu.Lock()
	fn := p.cpuTimeFn
	p.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Boost returns the management-set priority offset.
func (p *LiveProc) Boost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.boost
}

// SetBoost records a priority-offset change and surfaces it.
func (p *LiveProc) SetBoost(b int) {
	p.mu.Lock()
	if p.boost == b || !p.alive {
		p.mu.Unlock()
		return
	}
	adj := Adjustment{PID: p.pid, What: "boost", Value: b, Before: p.boost}
	p.boost = b
	hook := p.onAdjust
	p.mu.Unlock()
	if hook != nil {
		hook(adj)
	}
}

// SetSchedClass records a scheduling-class change and surfaces it.
func (p *LiveProc) SetSchedClass(rt bool, prio int) {
	p.mu.Lock()
	if !p.alive {
		p.mu.Unlock()
		return
	}
	adj := Adjustment{PID: p.pid, What: "class", Value: prio, RT: rt, Before: p.prio}
	p.rt, p.prio = rt, prio
	hook := p.onAdjust
	p.mu.Unlock()
	if hook != nil {
		hook(adj)
	}
}

// Realtime reports whether the process has been granted the RT class.
func (p *LiveProc) Realtime() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt
}

// WorkingSet returns the declared desired resident pages.
func (p *LiveProc) WorkingSet() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workingSet
}

// SetWorkingSet declares the process's desired resident pages.
func (p *LiveProc) SetWorkingSet(pages int) {
	p.mu.Lock()
	p.workingSet = pages
	p.mu.Unlock()
}

// Resident returns the recorded resident-set allotment.
func (p *LiveProc) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// SetResident records a resident-set change and surfaces it.
func (p *LiveProc) SetResident(pages int) int {
	if pages < 0 {
		pages = 0
	}
	p.mu.Lock()
	if !p.alive || p.resident == pages {
		res := p.resident
		p.mu.Unlock()
		return res
	}
	adj := Adjustment{PID: p.pid, What: "resident", Value: pages, Before: p.resident}
	p.resident = pages
	hook := p.onAdjust
	p.mu.Unlock()
	if hook != nil {
		hook(adj)
	}
	return pages
}

// LiveHost is a HostControl for the machine a live host manager runs on.
// Load statistics come from pluggable observers (defaulting to
// /proc/loadavg where available); processes are registered as LiveProc
// handles whose adjustments flow to OnAdjust.
type LiveHost struct {
	name string

	mu        sync.Mutex
	procs     map[int]*LiveProc
	loadFn    func() float64
	runQFn    func() int
	physPages int
	freePages int
	onAdjust  func(Adjustment)
}

// NewLiveHost creates a live host named name. Load average defaults to
// the OS loadavg (zero where unavailable), read at most once per
// loadAvgEvery; memory defaults to 1<<16 physical pages, all free.
func NewLiveHost(name string) *LiveHost {
	return &LiveHost{
		name:      name,
		procs:     make(map[int]*LiveProc),
		loadFn:    sampled(OSLoadAvg, Wall(), loadAvgEvery),
		physPages: 1 << 16,
		freePages: 1 << 16,
	}
}

// loadAvgEvery is how often the default load observer re-reads
// /proc/loadavg. The kernel refreshes the figure every five seconds; a
// host manager asks for it on every violation report and every query.
const loadAvgEvery = time.Second

// sampled returns an observer that calls read at most once per every on
// clock and answers with the last reading in between. Safe for
// concurrent use.
func sampled(read func() float64, clock Clock, every time.Duration) func() float64 {
	var (
		mu   sync.Mutex
		last float64
		next time.Duration // clock time from which the reading is stale
	)
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		if now := clock(); now >= next {
			last, next = read(), now+every
		}
		return last
	}
}

// Name returns the host name.
func (h *LiveHost) Name() string { return h.name }

// SetOnAdjust installs the hook that receives every resource-manager
// action applied to a process of this host.
func (h *LiveHost) SetOnAdjust(fn func(Adjustment)) {
	h.mu.Lock()
	h.onAdjust = fn
	h.mu.Unlock()
}

// SetLoadFunc replaces the load-average observer (tests, custom probes).
func (h *LiveHost) SetLoadFunc(fn func() float64) {
	h.mu.Lock()
	h.loadFn = fn
	h.mu.Unlock()
}

// SetRunQueueFunc replaces the run-queue observer.
func (h *LiveHost) SetRunQueueFunc(fn func() int) {
	h.mu.Lock()
	h.runQFn = fn
	h.mu.Unlock()
}

// SetMemory declares the host's physical and free pages (as observed by
// the embedding daemon).
func (h *LiveHost) SetMemory(phys, free int) {
	h.mu.Lock()
	h.physPages, h.freePages = phys, free
	h.mu.Unlock()
}

// LoadAvg returns the observed one-minute load average.
func (h *LiveHost) LoadAvg() float64 {
	h.mu.Lock()
	fn := h.loadFn
	h.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// RunQueueLen returns the observed run-queue length (zero when unwired).
func (h *LiveHost) RunQueueLen() int {
	h.mu.Lock()
	fn := h.runQFn
	h.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// PhysPages returns the declared physical pages.
func (h *LiveHost) PhysPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.physPages
}

// FreePages returns the declared free pages.
func (h *LiveHost) FreePages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.freePages
}

// StartProc registers (or returns) the handle for pid. New handles start
// alive with zero boost and inherit the host's OnAdjust hook.
func (h *LiveHost) StartProc(pid int) *LiveProc {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.procs[pid]; ok {
		return p
	}
	p := &LiveProc{pid: pid, alive: true}
	p.onAdjust = func(a Adjustment) {
		h.mu.Lock()
		hook := h.onAdjust
		h.mu.Unlock()
		if hook != nil {
			hook(a)
		}
	}
	h.procs[pid] = p
	return p
}

// Proc returns the handle for pid, or nil.
func (h *LiveHost) Proc(pid int) *LiveProc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.procs[pid]
}

// OSLoadAvg reads the one-minute load average from /proc/loadavg,
// returning 0 on platforms or containers where it is unavailable.
func OSLoadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}
