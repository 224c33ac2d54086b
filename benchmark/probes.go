package main

import (
	"runtime"
	"time"
)

// timeProbe calls p.run in five batches, each sized to last about a
// fifth of minDur, and returns the median batch's time per call in
// nanoseconds together with heap allocations per call.
func timeProbe(p probe, minDur time.Duration) (nsPerCall, allocsPerCall float64) {
	const batches = 5
	n := 1
	for {
		t := time.Now()
		p.run(n)
		if time.Since(t) >= minDur/(2*batches) || n >= 1<<24 {
			break
		}
		n *= 2
	}
	n *= 2
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make([]float64, batches)
	for i := range per {
		t := time.Now()
		p.run(n)
		per[i] = float64(time.Since(t)) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(n*batches)
}

// runProbes measures every P-sourced per-layer metric.
func runProbes(res *results, roster int, minDur time.Duration) {
	probes, counts, stop := layerProbes(roster)
	defer stop()
	for name, v := range counts {
		res.set(name, v)
	}
	for _, p := range probes {
		ns, allocs := timeProbe(p, minDur)
		if p.unit == "us" {
			ns /= 1e3
		}
		res.set(p.name, ns)
		if p.name == "rules.host_violation_us" {
			res.set("rules.allocs_per_episode", allocs)
		}
	}
}

// passSampler measures the paper's Overhead-2, nanoseconds per compliant
// pass. A vCPU that shares a core with a busy neighbour runs the same
// loop half as fast for seconds at a time, so the batches are spread
// over the run (2 M passes each time sample is called) and the reported
// cost is the batches' first quartile (see undisturbed).
type passSampler struct {
	run func(n int)
	per []float64
}

func newPassSampler() *passSampler {
	ps := &passSampler{run: passProbe()}
	ps.run(100000) // fill the sensors' windows
	return ps
}

// sample times five batches of 400 000 passes; a nil sampler does nothing.
func (ps *passSampler) sample() {
	if ps == nil {
		return
	}
	for i := 0; i < 5; i++ {
		const n = 400000
		t := time.Now()
		ps.run(n)
		ps.per = append(ps.per, float64(time.Since(t))/n)
	}
}

func (ps *passSampler) value() float64 { return undisturbed(ps.per, true) }
