package manager

import (
	"strconv"
	"strings"
	"testing"

	"softqos/internal/msg"
	"softqos/internal/rules"
	"softqos/internal/runtime"
	"softqos/internal/telemetry"
)

// liveRig is a host manager wired the way qosd wires it — metrics
// registry and a violation tracer that is NOT the coordinator's, so every
// report arrives with a foreign trace context — over a live host whose
// process handles do nothing but record the adjustment.
type liveRig struct {
	hm   *HostManager
	id   msg.Identity
	ctxs []telemetry.TraceContext
	next int
}

func newLiveRig(domainAddr string) *liveRig {
	host := runtime.NewLiveHost("live")
	host.SetLoadFunc(func() float64 { return 0.5 }) // the default reads /proc/loadavg per report
	r := &liveRig{id: msg.Identity{Host: "live", PID: 4242, Executable: "mpeg_play", Application: "VideoApplication"}}
	r.hm = NewHostManager("/live/QoSHostManager", host, func(string, msg.Message) error { return nil }, domainAddr, Liveness{})
	r.hm.SetTelemetry(telemetry.NewRegistry(nil), telemetry.NewTracer(nil))
	r.hm.Track(host.StartProc(r.id.PID), r.id)
	// One propagated context per episode, as the coordinator's tracer
	// would mint them; built up front so the guard counts the manager.
	for i := 1; i <= 4096; i++ {
		r.ctxs = append(r.ctxs, telemetry.TraceContext{TraceID: r.id.Address() + "#" + strconv.Itoa(i), Span: 2})
	}
	return r
}

// report delivers one violation report. The body is boxed by the caller
// once, as the decoder boxes it: the guard counts the manager, not the box.
func (r *liveRig) report(v any) {
	ctx := r.ctxs[r.next%len(r.ctxs)]
	r.next++
	r.hm.HandleMessage(msg.Message{Body: v, Trace: ctx})
}

// TestEpisodeAllocationBudget guards the allocation-free diagnosis
// episode: with registry and tracer attached, one host violation report
// (assert, forward-chain, explain, adapt span, retract) and one overshoot
// report stay inside a fixed allocation budget. Before the compiled
// matcher these measured 196 and 121.
func TestEpisodeAllocationBudget(t *testing.T) {
	r := newLiveRig("")
	var viol, over any = violation(r.id, 22, 12, false), violation(r.id, 30, 12, true)
	for i := 0; i < 64; i++ { // let scratch buffers reach their steady size
		r.report(viol)
		r.report(over)
	}
	if got := testing.AllocsPerRun(500, func() { r.report(viol) }); got > 40 {
		t.Errorf("host violation episode: %.0f allocs, budget 40", got)
	}
	if got := testing.AllocsPerRun(500, func() { r.report(over) }); got > 25 {
		t.Errorf("host overshoot episode: %.0f allocs, budget 25", got)
	}
	if r.hm.RuleErrors != 0 || r.hm.Engine().FactCount() != 1 {
		t.Errorf("rule errors %d, resident facts %d (want 0, 1)", r.hm.RuleErrors, r.hm.Engine().FactCount())
	}
}

// BenchmarkHostViolationEpisode times the same traced violation report.
func BenchmarkHostViolationEpisode(b *testing.B) {
	r := newLiveRig("")
	var viol any = violation(r.id, 22, 12, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.report(viol)
	}
}

// TestDomainEpisodeAllocationBudget: one localization — alarm in, query
// out, report in, forward-chain to the network-fault conclusion with its
// two spans and explanation, retract — with registry and a foreign-context
// tracer attached.
func TestDomainEpisodeAllocationBudget(t *testing.T) {
	dm := NewDomainManager("/domain/QoSDomainManager", func(string, msg.Message) error { return nil }, DomainConfig{})
	dm.SetTelemetry(telemetry.NewRegistry(nil), telemetry.NewTracer(nil))
	dm.RegisterAppServer("VideoApplication", "/server/QoSHostManager", "mpeg_serve")
	dm.OnNetworkFault = func(msg.Alarm) {}
	r := newLiveRig("")
	var alarm any = msg.Alarm{ID: r.id, Policy: "NotifyQoSViolation", Suspect: "remote",
		Readings: map[string]float64{"frame_rate": 12, "buffer_size": 1}}
	values := map[string]float64{"cpu_load": 0.5, "run_queue": 1, "mem_usage": 0.5, "proc_cpu:mpeg_serve": 3}
	// One boxed report per ref the episodes will use, built up front like
	// the contexts, so the guard counts the manager.
	reports := make([]any, 0, 600)
	for ref := 1; ref <= cap(reports); ref++ {
		reports = append(reports, msg.Report{Host: "server", Values: values, Ref: "e" + strconv.Itoa(ref)})
	}
	episode := func() {
		ctx := r.ctxs[r.next%len(r.ctxs)]
		r.next++
		dm.HandleMessage(msg.Message{Body: alarm, Trace: ctx})
		dm.HandleMessage(msg.Message{Body: reports[dm.nextRef-1]})
	}
	for i := 0; i < 64; i++ {
		episode()
	}
	if got := testing.AllocsPerRun(500, episode); got > 50 {
		t.Errorf("domain episode: %.0f allocs, budget 50", got)
	}
	if dm.NetworkFaults != dm.Alarms || dm.RuleErrors != 0 || dm.PendingEpisodes() != 0 || dm.Engine().FactCount() != 2 {
		t.Errorf("alarms %d network faults %d rule errors %d pending %d resident facts %d",
			dm.Alarms, dm.NetworkFaults, dm.RuleErrors, dm.PendingEpisodes(), dm.Engine().FactCount())
	}
}

// TestEpisodeFiringOrderStable: two rules of equal salience over the same
// report fire in an order decided by recency, hence by the order the
// episode's facts were asserted — which used to be map-iteration order,
// different from report to report. Readings (host) and statistics
// (domain) are asserted in sorted key order, so the later key's rule
// fires first, every time.
func TestEpisodeFiringOrderStable(t *testing.T) {
	r := newLiveRig("")
	if err := r.hm.LoadRules(`
(defrule on-frame-rate (violation ?p ?) (reading ?p frame_rate ?v) => (call note frame_rate))
(defrule on-buffer-size (violation ?p ?) (reading ?p buffer_size ?v) => (call note buffer_size))
(defrule on-jitter-rate (violation ?p ?) (reading ?p jitter_rate ?v) => (call note jitter_rate))`); err != nil {
		t.Fatal(err)
	}
	dm := NewDomainManager("/d", func(string, msg.Message) error { return nil }, DomainConfig{})
	dm.RegisterAppServer("VideoApplication", "/server/QoSHostManager", "mpeg_serve")
	if err := dm.LoadRules(`
(defrule on-load (episode ?e ?) (server-report ?e cpu_load ?v) => (call note cpu_load))
(defrule on-queue (episode ?e ?) (server-report ?e run_queue ?v) => (call note run_queue))
(defrule on-mem (episode ?e ?) (server-report ?e mem_usage ?v) => (call note mem_usage))`); err != nil {
		t.Fatal(err)
	}
	var order []string
	note := func(args []rules.Value) error { order = append(order, args[0].Sym); return nil }
	r.hm.Engine().RegisterFunc("note", note)
	dm.Engine().RegisterFunc("note", note)
	for i := 0; i < 1000; i++ {
		order = order[:0]
		v := violation(r.id, 22, 12, false) // a fresh map each report
		r.hm.HandleMessage(msg.Message{Body: v})
		dm.HandleMessage(msg.Message{Body: msg.Alarm{ID: r.id, Policy: "P"}})
		dm.HandleMessage(msg.Message{Body: msg.Report{Ref: "e" + strconv.Itoa(dm.nextRef), Values: map[string]float64{
			"cpu_load": 0.5, "run_queue": 1, "mem_usage": 0.5, "proc_cpu:mpeg_serve": 3}}})
		if got := strings.Join(order, " "); got != "jitter_rate frame_rate buffer_size run_queue mem_usage cpu_load" {
			t.Fatalf("report %d fired in order %q", i, got)
		}
	}
}
