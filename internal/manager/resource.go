// Package manager implements the decision-making tier of the framework:
// the QoS Host Manager (violation diagnosis via a CLIPS-style inference
// engine plus per-resource managers for CPU and memory, Section 5.3) and
// the QoS Domain Manager (cross-host fault localization distinguishing
// server faults from network faults).
package manager

import (
	"strconv"

	"softqos/internal/runtime"
)

// Boost limits for the CPU manager: how far a process's time-sharing
// priority may be pushed above or below its natural dynamic priority.
const (
	minBoost = -20
	maxBoost = 59
)

// CPUManager adjusts CPU allocations of one host's processes, the way the
// prototype's CPU resource manager manipulated Solaris time-sharing
// priorities or allocated real-time cycles. It acts through the
// runtime.ProcHandle port, so the same manager drives simulated and real
// processes.
type CPUManager struct {
	host runtime.HostControl

	// Adjustments counts boost changes applied (for experiment reports).
	Adjustments int
}

// NewCPUManager creates the CPU resource manager for a host.
func NewCPUManager(h runtime.HostControl) *CPUManager { return &CPUManager{host: h} }

// Boost shifts the process's management priority offset by delta,
// clamped, returning the resulting offset.
func (m *CPUManager) Boost(p runtime.ProcHandle, delta int) int {
	b := p.Boost() + delta
	if b > maxBoost {
		b = maxBoost
	}
	if b < minBoost {
		b = minBoost
	}
	if b != p.Boost() {
		p.SetBoost(b)
		m.Adjustments++
	}
	return b
}

// GrantRealtime moves the process into the real-time class at prio
// ("allocating units of real-time CPU cycles").
func (m *CPUManager) GrantRealtime(p runtime.ProcHandle, prio int) {
	p.SetSchedClass(true, prio)
	m.Adjustments++
}

// RevokeRealtime returns the process to the time-sharing class.
func (m *CPUManager) RevokeRealtime(p runtime.ProcHandle) {
	p.SetSchedClass(false, 29)
	m.Adjustments++
}

// MemoryManager adjusts resident-set allocations ("adjusting the number
// of resident pages each process has in physical memory").
type MemoryManager struct {
	host runtime.HostControl

	// Adjustments counts resident-set changes applied.
	Adjustments int
}

// NewMemoryManager creates the memory resource manager for a host.
func NewMemoryManager(h runtime.HostControl) *MemoryManager { return &MemoryManager{host: h} }

// Adjust grows or shrinks the process's resident set by deltaPages,
// bounded by physical memory, returning the resulting resident size.
func (m *MemoryManager) Adjust(p runtime.ProcHandle, deltaPages int) int {
	m.Adjustments++
	return p.SetResident(p.Resident() + deltaPages)
}

// Ensure reserves at least pages resident for the process.
func (m *MemoryManager) Ensure(p runtime.ProcHandle, pages int) int {
	if p.Resident() >= pages {
		return p.Resident()
	}
	m.Adjustments++
	return p.SetResident(pages)
}

func pidSym(pid int) string { return "p" + strconv.Itoa(pid) }

// spanDetail renders "<head><n><tail>" for an adjustment span without
// going through fmt; signed renders n as %+d.
func spanDetail(head string, n int, signed bool, tail string) string {
	var a [64]byte
	b := append(a[:0], head...)
	if signed && n >= 0 {
		b = append(b, '+')
	}
	return string(append(strconv.AppendInt(b, int64(n), 10), tail...))
}
