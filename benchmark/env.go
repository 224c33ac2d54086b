package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every run so a number can be traced to
// the machine state that produced it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Network    string  `json:"network"`
	Load1      float64 `json:"load1_at_start"`
	// Noisy marks a run started on a machine already busier than half
	// its cores: its numbers are printed, not trusted.
	Noisy bool `json:"noisy"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network:    "loopback TCP (127.0.0.1), generator and system in one process",
		Load1:      osLoadAvg(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	env.Noisy = env.Load1 > 0.5*float64(env.NProc)
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSnapshot is the process-level accounting taken at a window
// boundary.
type procSnapshot struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func takeProcSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		at: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (e environment) String() string {
	return fmt.Sprintf("commit %s, %s, %s, nproc %d, GOMAXPROCS %d, %s, load1 %.2f, noisy %v",
		e.Commit, e.GoVersion, e.CPU, e.NProc, e.GOMAXPROCS, e.Network, e.Load1, e.Noisy)
}
