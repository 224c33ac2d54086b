// Package runtime defines the seams that separate the management stack
// (coordinators, policy agent, host and domain managers, resource
// managers) from the environment it runs in. The same stack runs in two
// runtimes:
//
//   - simulation: virtual clock (internal/sim), in-sim message bus
//     (msg.Bus) and simulated processes (internal/sched);
//   - live: wall clock, TCP transport (msg.NetTransport) and
//     real-process handles (LiveProc/LiveHost in this package).
//
// The managers depend only on these interfaces, so every diagnosis,
// escalation and adaptation feature is automatically available in both
// deployments — one codebase, many deployments.
package runtime

import "time"

// Clock returns the current time as a duration from an arbitrary fixed
// origin. The simulator supplies virtual time; live mode wall time.
type Clock func() time.Duration

// Wall returns a wall clock anchored at the moment of the call.
func Wall() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// ProcHandle is the process-control port: one managed process as seen by
// the resource managers. The simulator backs it with *sched.Proc; live
// mode with *LiveProc, whose adjustments are surfaced to the embedding
// daemon (which applies them to the real OS process).
type ProcHandle interface {
	// PID identifies the process on its host.
	PID() int
	// Alive reports whether the process is still running; a dead process
	// reports no statistics (how the domain manager detects failure).
	Alive() bool
	// CPUTime returns cumulative CPU time consumed.
	CPUTime() time.Duration

	// Boost returns the management-set priority offset; SetBoost changes
	// it (the paper's CPU manager lever: manipulate TS priorities).
	Boost() int
	SetBoost(b int)
	// SetSchedClass moves the process into (rt=true) or out of the
	// real-time scheduling class at class-local priority prio.
	SetSchedClass(rt bool, prio int)

	// WorkingSet returns the pages the process wants resident; Resident
	// the pages currently resident; SetResident adjusts the allotment
	// (clamped by the host) and returns the result.
	WorkingSet() int
	Resident() int
	SetResident(pages int) int
}

// HostControl is the host-statistics port the host manager diagnoses
// with and reports to the domain manager. The simulator backs it with
// *sched.Host; live mode with *LiveHost.
type HostControl interface {
	Name() string
	// LoadAvg returns the damped one-minute load average.
	LoadAvg() float64
	// RunQueueLen returns the instantaneous runnable+running count.
	RunQueueLen() int
	// PhysPages and FreePages describe physical memory.
	PhysPages() int
	FreePages() int
}
