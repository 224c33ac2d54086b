package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/telemetry"
)

func TestParseValidPlan(t *testing.T) {
	p, err := Parse([]byte(`{"seed": 7, "rules": [
		{"name": "slow", "kind": "delay", "types": ["violation"], "delay": "250ms", "jitter": 1000},
		{"name": "down", "kind": "crash", "target": "/client-host/", "after": "1s", "until": "2s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 2 {
		t.Fatalf("plan = %+v", p)
	}
	slow := p.Rules[0]
	if time.Duration(slow.Delay) != 250*time.Millisecond || time.Duration(slow.Jitter) != time.Microsecond {
		t.Errorf("delay/jitter = %v/%v, want 250ms (string) and 1µs (nanoseconds)",
			time.Duration(slow.Delay), time.Duration(slow.Jitter))
	}
	down := p.Rules[1]
	if down.active(999*time.Millisecond) || !down.active(time.Second) || down.active(2*time.Second) {
		t.Error("crash window is not [1s, 2s)")
	}
}

func TestParseRejectsBadPlans(t *testing.T) {
	for name, plan := range map[string]string{
		"not json":         `{"rules": [`,
		"unknown kind":     `{"rules": [{"name": "x", "kind": "explode"}]}`,
		"crash, no target": `{"rules": [{"name": "x", "kind": "crash"}]}`,
		"partition, none":  `{"rules": [{"name": "x", "kind": "partition"}]}`,
		"bad duration":     `{"rules": [{"name": "x", "kind": "delay", "delay": "soon"}]}`,
		"duration type":    `{"rules": [{"name": "x", "kind": "delay", "delay": true}]}`,
	} {
		if _, err := Parse([]byte(plan)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, plan)
		}
	}
}

func TestRandomPlanDeterministicPerSeed(t *testing.T) {
	a := RandomPlan(42, 0.05, time.Minute)
	b := RandomPlan(42, 0.05, time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("random plan does not validate: %v", err)
	}
	if c := RandomPlan(43, 0.05, time.Minute); reflect.DeepEqual(a.Rules, c.Rules) {
		t.Error("different seeds drew identical fault windows")
	}
	for _, r := range a.Rules {
		if r.Until != 0 && (r.After >= r.Until || time.Duration(r.Until) > time.Minute) {
			t.Errorf("rule %s window [%v, %v) outside the horizon", r.Name,
				time.Duration(r.After), time.Duration(r.Until))
		}
	}
}

// recorder is the wrapped transport: it records what gets through.
type recorder struct{ sent []string }

func (r *recorder) Send(to string, m msg.Message) error {
	tag, _ := msg.TypeTag(m.Body)
	r.sent = append(r.sent, tag+"->"+to)
	return nil
}
func (r *recorder) Bind(string, string, msg.BusHandler) {}
func (r *recorder) Unbind(string)                       {}
func (r *recorder) Bound(string) bool                   { return true }

// faultRig wraps a recorder with one rule, a settable clock and a
// hand-run timer queue.
type faultRig struct {
	inner  *recorder
	f      *Transport
	now    time.Duration
	timers []func()
	delays []time.Duration
	tracer *telemetry.Tracer
}

func newFaultRig(rules ...Rule) *faultRig {
	fr := &faultRig{inner: &recorder{}}
	clock := func() time.Duration { return fr.now }
	fr.f = New(fr.inner, &Plan{Seed: 1, Rules: rules}, clock, func(d time.Duration, fn func()) {
		fr.delays = append(fr.delays, d)
		fr.timers = append(fr.timers, fn)
	})
	fr.tracer = telemetry.NewTracer(clock)
	fr.f.SetTracer(fr.tracer)
	return fr
}

func (fr *faultRig) fire() {
	timers := fr.timers
	fr.timers = nil
	for _, fn := range timers {
		fn()
	}
}

var (
	viewer    = msg.Identity{Host: "client-host", PID: 7, Executable: "mpeg_play", Application: "VideoApplication"}
	violation = msg.Message{From: "/client-host/coord", Body: msg.Violation{ID: viewer, Policy: "P"}}
	alarm     = msg.Message{From: "/client-host/hm", Body: msg.Alarm{ID: viewer, Policy: "P"}}
	ack       = msg.Message{From: "/mgmt/dm", Body: msg.Ack{Ref: "r"}}
)

// faultSpans counts fault spans on the subject's open episode.
func (fr *faultRig) faultSpans() int {
	n := 0
	for _, tr := range fr.tracer.Traces() {
		for _, sp := range tr.Spans {
			if tr.Subject == viewer.Address() && sp.Stage == telemetry.StageFault {
				n++
			}
		}
	}
	return n
}

func TestTransportDropSelectsByType(t *testing.T) {
	fr := newFaultRig(Rule{Name: "lose-violations", Kind: KindDrop, Types: []string{"violation"}})
	fr.tracer.Begin(viewer.Address(), "P", "coordinator", "fps out of band")
	if err := fr.f.Send("/client-host/hm", violation); err != nil {
		t.Fatalf("a dropped message must look sent: %v", err)
	}
	if err := fr.f.Send("/client-host/coord", ack); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fr.inner.sent, " "); got != "ack->/client-host/coord" {
		t.Errorf("delivered %q, want only the ack", got)
	}
	if fr.f.Counts()[KindDrop] != 1 || fr.f.Injected() != 1 || fr.f.String() != "drop=1" {
		t.Errorf("counts %v, injected %d, %q", fr.f.Counts(), fr.f.Injected(), fr.f.String())
	}
	// The drop is annotated on the episode the violation's body names.
	if n := fr.faultSpans(); n != 1 {
		t.Errorf("fault spans on the violation's trace = %d, want 1", n)
	}
}

func TestTransportDelayHoldsUntilTimer(t *testing.T) {
	fr := newFaultRig(Rule{Name: "slow", Kind: KindDelay, Delay: Duration(20 * time.Millisecond)})
	fr.tracer.Begin(viewer.Address(), "P", "coordinator", "fps out of band")
	_ = fr.f.Send("/mgmt/dm", alarm)
	if len(fr.inner.sent) != 0 {
		t.Fatalf("delayed alarm delivered at once: %v", fr.inner.sent)
	}
	if len(fr.delays) != 1 || fr.delays[0] != 20*time.Millisecond {
		t.Fatalf("scheduled delays %v, want [20ms]", fr.delays)
	}
	fr.fire()
	if got := strings.Join(fr.inner.sent, " "); got != "alarm->/mgmt/dm" {
		t.Errorf("after the timer: %q", got)
	}
	// Alarm bodies name their episode too.
	if n := fr.faultSpans(); n != 1 {
		t.Errorf("fault spans on the alarm's trace = %d, want 1", n)
	}
}

func TestTransportDuplicateDeliversTwice(t *testing.T) {
	fr := newFaultRig(Rule{Name: "echo", Kind: KindDuplicate, To: "/mgmt/"})
	_ = fr.f.Send("/mgmt/dm", alarm)
	_ = fr.f.Send("/client-host/coord", ack) // To selector: not duplicated
	if got := strings.Join(fr.inner.sent, " "); got != "alarm->/mgmt/dm ack->/client-host/coord" {
		t.Fatalf("immediate deliveries %q", got)
	}
	if len(fr.delays) != 1 || fr.delays[0] != time.Millisecond {
		t.Fatalf("duplicate scheduled %v, want one copy after the 1ms default", fr.delays)
	}
	fr.fire()
	if n := len(fr.inner.sent); n != 3 || fr.inner.sent[2] != "alarm->/mgmt/dm" {
		t.Errorf("deliveries after the timer: %v", fr.inner.sent)
	}
	if fr.f.Counts()[KindDuplicate] != 1 {
		t.Errorf("counts %v", fr.f.Counts())
	}
}

func TestTransportCrashWindowAndClear(t *testing.T) {
	fr := newFaultRig(Rule{Name: "down", Kind: KindCrash, Target: "/client-host/",
		After: Duration(time.Second), Until: Duration(2 * time.Second)})
	if err := fr.f.Send("/client-host/hm", alarm); err != nil {
		t.Fatalf("before the window: %v", err)
	}
	fr.now = time.Second
	err := fr.f.Send("/client-host/hm", alarm)
	var se *msg.SendError
	if !errors.As(err, &se) || !errors.Is(err, ErrCrashed) {
		t.Fatalf("send to the crashed target = %v, want a SendError wrapping ErrCrashed", err)
	}
	if err := fr.f.Send("/mgmt/dm", violation); err != nil || len(fr.inner.sent) != 1 {
		t.Fatalf("the crashed process's own send must be lost silently: err %v, sent %v", err, fr.inner.sent)
	}
	fr.f.Clear()
	if err := fr.f.Send("/client-host/hm", alarm); err != nil || len(fr.inner.sent) != 2 {
		t.Errorf("after Clear: err %v, sent %v", err, fr.inner.sent)
	}
}

// TestTransportInvalidPassesThrough: a message the protocol rejects is
// not the plan's business — it reaches the wrapped transport, whose
// drop accounting stays authoritative.
func TestTransportInvalidPassesThrough(t *testing.T) {
	fr := newFaultRig(Rule{Name: "all", Kind: KindDrop})
	_ = fr.f.Send("/mgmt/dm", msg.Message{Body: msg.Violation{Policy: "P"}}) // pid 0
	if len(fr.inner.sent) != 1 || fr.f.Injected() != 0 {
		t.Errorf("invalid message: sent %v, injected %d", fr.inner.sent, fr.f.Injected())
	}
}
