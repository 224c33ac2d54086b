package scenario

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"softqos/internal/faults"
	"softqos/internal/loadgen"
	"softqos/internal/sched"
)

// Load pulses force the soak's violation episodes: every
// soakPulseEvery, soakPulseLoad spinners run for 60% of the period.
const (
	soakPulseEvery = 4 * time.Second
	soakPulseLoad  = 6
)

// SoakConfig parameterizes a randomized resilience soak: a managed
// scenario driven through hundreds of violation episodes while a
// seeded fault schedule batters the management plane.
type SoakConfig struct {
	// Seed drives the scenario AND the fault schedule (default 1).
	Seed int64
	// Episodes is the number of completed violation episodes to drive
	// before draining (default 200).
	Episodes int
	// FaultRate is the per-message injection probability for the
	// randomized plan (default 0.15). Ignored when Plan is set.
	FaultRate float64
	// Plan overrides the fault schedule (default
	// faults.RandomPlan(Seed, FaultRate, MaxVirtual)).
	Plan *faults.Plan
	// MaxVirtual caps the chaos phase's virtual time (default 45m); it
	// is also the horizon the randomized plan spreads faults over.
	MaxVirtual time.Duration
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Episodes <= 0 {
		c.Episodes = 200
	}
	if c.FaultRate <= 0 {
		c.FaultRate = 0.15
	}
	if c.MaxVirtual <= 0 {
		c.MaxVirtual = 45 * time.Minute
	}
	return c
}

// SoakResult summarizes a soak run. The resilience invariant the soak
// harness asserts is Open == 0 after the drain: every episode either
// recovered or was explicitly abandoned with a traced reason.
type SoakResult struct {
	Episodes  int // completed episodes (recovered + abandoned)
	Recovered int
	Abandoned int
	Open      int // episodes still open after the drain — must be 0

	// Resilience machinery observed in action.
	Evicted    uint64 // client host manager agent evictions
	Heartbeats uint64 // heartbeats the client host manager saw
	Timeouts   uint64 // domain manager episode timeouts
	Injected   map[string]uint64

	// Time-to-recovery distribution over recovered episodes.
	TTRp50, TTRp95, TTRMax time.Duration

	VirtualTime time.Duration // chaos-phase virtual time consumed
}

// Soak builds a managed scenario under the fault plan, pulses load to
// force violation episodes until the target count completes (or the
// virtual-time cap is hit), then clears the faults and drains: with
// injection off, every still-open episode must close. Same seed, same
// result — the chaos is as deterministic as the simulator.
func Soak(cfg SoakConfig) SoakResult {
	cfg = cfg.withDefaults()
	plan := cfg.Plan
	if plan == nil {
		plan = faults.RandomPlan(cfg.Seed, cfg.FaultRate, cfg.MaxVirtual)
	}
	sys := Build(Config{Seed: cfg.Seed, Managed: true, Faults: plan})
	s := sys.Sim

	// Load pulses: spinners arrive each period and leave at 60% of it,
	// slamming the stream out of its band and letting it back.
	var live []*sched.Proc
	pulse := 0
	tk := s.Every(soakPulseEvery, func() {
		pulse++
		procs := make([]*sched.Proc, 0, soakPulseLoad)
		for i := 0; i < soakPulseLoad; i++ {
			procs = append(procs, loadgen.Spin(sys.ClientHost, spinName(pulse, i)))
		}
		live = append(live, procs...)
		s.After(soakPulseEvery*3/5, func() {
			for _, p := range procs {
				p.Exit()
			}
			live = slices.DeleteFunc(live, func(p *sched.Proc) bool { return slices.Contains(procs, p) })
		})
	})

	// Chaos phase: run until enough episodes completed.
	s.RunFor(5 * time.Second) // let registration settle
	for sys.Tracer.Completed() < cfg.Episodes && s.Now().Duration() < cfg.MaxVirtual {
		s.RunFor(time.Second)
	}
	chaosTime := s.Now().Duration()
	tk.Stop()
	for _, p := range live {
		p.Exit()
	}

	// Drain phase: faults off, load off — every open episode must now
	// recover (or already be abandoned). The cap is generous; the soak
	// test treats still-open traces after it as the bug they would be.
	sys.Faults.Clear()
	for i := 0; i < 120 && sys.Tracer.Open() > 0; i++ {
		s.RunFor(time.Second)
	}

	res := SoakResult{
		Open:        sys.Tracer.Open(),
		Evicted:     sys.ClientHM.AgentsEvicted,
		Heartbeats:  sys.ClientHM.HeartbeatsSeen,
		Timeouts:    sys.DM.EpisodeTimeouts,
		Injected:    sys.Faults.Counts(),
		VirtualTime: chaosTime,
	}
	var ttrs []time.Duration
	for _, t := range sys.Tracer.Traces() {
		if d, ok := t.TimeToRecovery(); ok {
			res.Recovered++
			ttrs = append(ttrs, d)
		} else if t.Abandoned {
			res.Abandoned++
		}
	}
	res.Episodes = res.Recovered + res.Abandoned
	if len(ttrs) > 0 {
		sort.Slice(ttrs, func(i, j int) bool { return ttrs[i] < ttrs[j] })
		res.TTRp50 = ttrs[len(ttrs)*50/100]
		res.TTRp95 = ttrs[len(ttrs)*95/100]
		res.TTRMax = ttrs[len(ttrs)-1]
	}
	return res
}

func spinName(pulse, i int) string {
	return "pulse-" + strconv.Itoa(pulse) + "-" + strconv.Itoa(i)
}
