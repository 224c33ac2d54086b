package softqos

import (
	"runtime"
	"testing"
	"time"

	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/policy"
	"softqos/internal/telemetry"
)

// escalateRig is the live_escalate topology of the benchmark module in
// one test process: a dial-only spoke node carrying a pool of
// coordinators, the client-side host manager, the domain manager and the
// server-side host manager, each on its own loopback NetTransport with
// registry, tracer and event log attached the way qosd wires a role. One
// episode is four messages over three hops: violation (spoke → host),
// alarm (host → domain), query (domain → server host), report (back).
type escalateRig struct {
	spoke *msg.NetTransport
	hm    *LiveHostManager
	dm    *LiveDomainManager
	shm   *LiveHostManager

	now       time.Duration // the coordinators' clock, stepped past the notify pacing
	fps       []*instrument.ValueSensor
	next      int
	diagnosed chan int    // pid of every network-fault diagnosis
	lost      *time.Timer // reused, so waiting for a diagnosis allocates nothing
}

const escalatePool = 64

func newEscalateRig(tb testing.TB) *escalateRig {
	tb.Helper()
	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	attach := func(set func(*telemetry.Registry, *telemetry.Tracer), log func(*EventLogger)) {
		reg, tracer, evlog := telemetry.NewRegistry(wall), telemetry.NewTracer(wall), NewEventLogger(wall, 0)
		tracer.SetMetrics(reg)
		evlog.SetMetrics(reg)
		set(reg, tracer)
		log(evlog)
	}
	quiet := func(lm *LiveHostManager) {
		lm.Host().SetLoadFunc(func() float64 { return 0.5 })
		lm.Host().SetRunQueueFunc(func() int { return 1 })
		lm.Host().SetMemory(1<<16, 1<<15)
	}
	fail := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}

	r := &escalateRig{diagnosed: make(chan int, 1), lost: time.NewTimer(time.Hour)}
	var err error
	r.dm, err = NewLiveDomainManager("127.0.0.1:0")
	fail(err)
	tb.Cleanup(func() { _ = r.dm.Close() })
	attach(r.dm.SetTelemetry, r.dm.SetEventLog)
	r.dm.Sync(func() {
		r.dm.Manager().OnNetworkFault = func(al msg.Alarm) { r.diagnosed <- al.ID.PID }
	})

	r.shm, err = NewLiveHostManager("127.0.0.1:0", manager.DefaultHostRules)
	fail(err)
	tb.Cleanup(func() { _ = r.shm.Close() })
	attach(r.shm.SetTelemetry, r.shm.SetEventLog)
	quiet(r.shm)
	r.shm.Sync(func() {
		r.shm.Manager().Track(r.shm.Host().StartProc(77), Identity{
			Host: "server-host", PID: 77, Executable: "mpeg_serve", Application: "VideoApplication"})
	})
	r.dm.RegisterAppServer("VideoApplication", r.shm.Addr(), "mpeg_serve")

	r.hm, err = NewLiveHostManagerDomain("127.0.0.1:0", manager.DefaultHostRules, r.dm.Addr())
	fail(err)
	tb.Cleanup(func() { _ = r.hm.Close() })
	attach(r.hm.SetTelemetry, r.hm.SetEventLog)
	quiet(r.hm)

	r.spoke, err = msg.NewNetTransport("bench-spoke", "")
	fail(err)
	tb.Cleanup(func() { _ = r.spoke.Close() })
	r.spoke.SetMetrics(telemetry.NewRegistry(wall))
	r.spoke.Route(LiveHostManagerAddr, r.hm.Addr())
	tracer := telemetry.NewTracer(wall)
	clock := instrument.Clock(func() time.Duration { return r.now })
	for i := 0; i < escalatePool; i++ {
		id := Identity{Host: "bench-host", PID: 100000 + i, Executable: "mpeg_play",
			Application: "VideoApplication", UserRole: "viewer"}
		coord := instrument.NewCoordinator(id, clock, r.spoke.Send, LiveAgentAddr, LiveHostManagerAddr)
		coord.SetTelemetry(nil, tracer)
		fps := instrument.NewValueSensor("fps_sensor", "frame_rate", nil)
		jit := instrument.NewValueSensor("jitter_sensor", "jitter_rate", nil)
		buf := instrument.NewValueSensor("buffer_sensor", "buffer_size", nil)
		coord.AddSensor(fps)
		coord.AddSensor(jit)
		coord.AddSensor(buf)
		spec, err := policy.Compile(mustParse(Example1Policy), map[string]string{
			"frame_rate": "fps_sensor", "jitter_rate": "jitter_sensor", "buffer_size": "buffer_sensor"})
		fail(err)
		fail(coord.InstallPolicies([]msg.PolicySpec{spec}))
		jit.Set(0.3)
		buf.Set(2) // a short buffer: the host rules escalate
		fps.Set(25)
		r.fps = append(r.fps, fps)
	}
	return r
}

// episode drives one violation of the next pool process to its
// network-fault diagnosis at the domain manager.
func (r *escalateRig) episode(tb testing.TB) {
	fps := r.fps[r.next%len(r.fps)]
	pid := 100000 + r.next%len(r.fps)
	r.next++
	r.spoke.Sync(func() {
		r.now += time.Second
		fps.Set(25) // back in band: closes the previous episode's trace
		fps.Set(22)
	})
	r.lost.Reset(10 * time.Second)
	select {
	case got := <-r.diagnosed:
		if got != pid {
			tb.Fatalf("diagnosis for pid %d, want %d", got, pid)
		}
	case <-r.lost.C:
		tb.Fatalf("episode of pid %d was not diagnosed within 10s", pid)
	}
}

// liveEscalateAllocBudget is the whole-process allocation budget of one
// escalated episode: every node's transport, codec, rule engine, tracer
// and event log, plus this driver's Sync. It measures 46 (154 before the
// transport, codec and episode plumbing stopped allocating per message);
// the benchmark module's own harness adds three, and its
// proc.allocs_per_episode is held to 70.
const liveEscalateAllocBudget = 55

// TestLiveEscalateAllocationBudget: the four-message episode over real
// loopback NetTransports stays inside its allocation budget.
func TestLiveEscalateAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real TCP")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newEscalateRig(t)
	for i := 0; i < 4*escalatePool; i++ { // connections dialled, scratch buffers at their steady size
		r.episode(t)
	}
	got := testing.AllocsPerRun(2000, func() { r.episode(t) })
	t.Logf("%.1f allocs per escalated episode", got)
	if got > liveEscalateAllocBudget {
		t.Errorf("escalated episode: %.1f allocs, budget %d", got, liveEscalateAllocBudget)
	}
	var escalations, alarms, faults, ruleErrors uint64
	r.hm.Sync(func() { escalations, ruleErrors = r.hm.Manager().Escalations, r.hm.Manager().RuleErrors })
	r.dm.Sync(func() {
		m := r.dm.Manager()
		alarms, faults, ruleErrors = m.Alarms, m.NetworkFaults, ruleErrors+m.RuleErrors
	})
	if n := uint64(r.next); escalations != n || alarms != n || faults != n || ruleErrors != 0 {
		t.Errorf("%d episodes: escalations %d, alarms %d, diagnoses %d, rule errors %d",
			n, escalations, alarms, faults, ruleErrors)
	}
}

// BenchmarkLiveEscalateEpisode times the same episode, one in flight, on
// one P like the benchmark module's live_escalate workload; `make
// profile-episode` profiles it.
func BenchmarkLiveEscalateEpisode(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newEscalateRig(b)
	for i := 0; i < 4*escalatePool; i++ {
		r.episode(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.episode(b)
	}
}
