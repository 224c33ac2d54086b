package msg_test

// FaultTransport conformance: wrapping either Transport implementation
// — the sim Bus or the live TCP NetTransport — in a faults.Transport
// must perturb delivery (drop, duplicate, delay, reorder) without ever
// corrupting what does arrive: every delivered message still passes
// Validate, keeps its From address, and the wrapped transport's byte
// accounting reflects exactly the messages that actually crossed it.
// (This lives in an external test package because faults imports msg.)

import (
	"testing"
	"time"

	"softqos/internal/faults"
	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

type faultConfCase struct {
	name   string
	prefix string // wrapped transport's metric namespace
	open   func(t *testing.T) (inner msg.Transport, setMetrics func(*telemetry.Registry),
		clock telemetry.Clock, after func(time.Duration, func()), pump func())
}

var faultConfCases = []faultConfCase{
	{
		name:   "bus",
		prefix: "msg.bus",
		open: func(t *testing.T) (msg.Transport, func(*telemetry.Registry),
			telemetry.Clock, func(time.Duration, func()), func()) {
			s := sim.New(1)
			b := msg.NewBus(s, time.Millisecond, 5*time.Millisecond)
			return b, b.SetMetrics,
				func() time.Duration { return s.Now().Duration() },
				func(d time.Duration, fn func()) { s.After(d, fn) },
				func() { s.RunFor(time.Second) }
		},
	},
	{
		name:   "net",
		prefix: "msg.net",
		open: func(t *testing.T) (msg.Transport, func(*telemetry.Registry),
			telemetry.Clock, func(time.Duration, func()), func()) {
			nt, err := msg.NewNetTransport("conf", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nt.Close() })
			// nil clock/after: wall-clock timers, rules always active.
			return nt, nt.SetMetrics, nil, nil,
				func() { time.Sleep(30 * time.Millisecond); nt.Sync(func() {}) }
		},
	},
}

func faultConfMsgs() (violation, directive msg.Message) {
	id := msg.Identity{Host: "h", PID: 1, Executable: "x"}
	violation = msg.Message{From: "/h/src", Body: msg.Violation{ID: id, Policy: "P"}}
	directive = msg.Message{From: "/h/src", Body: msg.Directive{Action: "actuate", Target: "frame_skip"}}
	return
}

// checkDelivered asserts every delivered message is still a valid,
// untampered envelope.
func checkDelivered(t *testing.T, got []msg.Message) {
	t.Helper()
	for i, m := range got {
		if err := msg.Validate(m); err != nil {
			t.Errorf("delivered message %d invalid after injection: %v", i, err)
		}
		if m.From != "/h/src" {
			t.Errorf("delivered message %d: From = %q, want /h/src", i, m.From)
		}
	}
}

func TestFaultTransportConformance(t *testing.T) {
	for _, tc := range faultConfCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("drop", func(t *testing.T) {
				inner, setMetrics, clock, after, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				ft := faults.New(inner, &faults.Plan{Seed: 1, Rules: []faults.Rule{
					{Name: "kill-violations", Kind: faults.KindDrop, Types: []string{"violation"}},
				}}, clock, after, obs.Kit{Metrics: reg})

				var got []msg.Message
				ft.Bind("/conf/sink", "conf", func(m msg.Message) { got = append(got, m) })
				violation, directive := faultConfMsgs()
				if err := ft.Send("/conf/sink", violation); err != nil {
					t.Fatalf("dropped send must look like loss in flight, got %v", err)
				}
				if err := ft.Send("/conf/sink", directive); err != nil {
					t.Fatal(err)
				}
				pump()

				if len(got) != 1 {
					t.Fatalf("delivered %d messages, want only the directive", len(got))
				}
				checkDelivered(t, got)
				if n := ft.Counts()[faults.KindDrop]; n != 1 {
					t.Errorf("drop count = %d, want 1", n)
				}
				if n := reg.Counter("faults.injected.drop").Value(); n != 1 {
					t.Errorf("faults.injected.drop = %d, want 1", n)
				}
				// Byte accounting stays truthful: the dropped violation
				// never reached the wrapped transport.
				if n := reg.Counter(tc.prefix + ".sent.violation").Value(); n != 0 {
					t.Errorf("%s.sent.violation = %d for a fault-dropped message", tc.prefix, n)
				}
				if n := reg.Counter(tc.prefix + ".sent.directive").Value(); n != 1 {
					t.Errorf("%s.sent.directive = %d, want 1", tc.prefix, n)
				}
			})

			t.Run("duplicate", func(t *testing.T) {
				inner, setMetrics, clock, after, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				ft := faults.New(inner, &faults.Plan{Seed: 1, Rules: []faults.Rule{
					{Name: "dup-all", Kind: faults.KindDuplicate},
				}}, clock, after, obs.Kit{})

				var got []msg.Message
				ft.Bind("/conf/sink", "conf", func(m msg.Message) { got = append(got, m) })
				_, directive := faultConfMsgs()
				if err := ft.Send("/conf/sink", directive); err != nil {
					t.Fatal(err)
				}
				pump()

				if len(got) != 2 {
					t.Fatalf("delivered %d copies, want 2", len(got))
				}
				checkDelivered(t, got)
				// Both copies crossed the wrapped transport and were
				// charged for: two sends, twice the bytes of one.
				if n := reg.Counter(tc.prefix + ".sent.directive").Value(); n != 2 {
					t.Errorf("%s.sent.directive = %d, want 2", tc.prefix, n)
				}
				bytes := reg.Counter(tc.prefix + ".bytes").Value()
				if bytes == 0 || bytes%2 != 0 {
					t.Errorf("%s.bytes = %d, want an even count covering both copies", tc.prefix, bytes)
				}
			})

			t.Run("delay", func(t *testing.T) {
				inner, setMetrics, clock, after, pump := tc.open(t)
				reg := telemetry.NewRegistry(func() time.Duration { return 0 })
				setMetrics(reg)
				ft := faults.New(inner, &faults.Plan{Seed: 1, Rules: []faults.Rule{
					{Name: "lag", Kind: faults.KindDelay, Delay: faults.Duration(5 * time.Millisecond)},
				}}, clock, after, obs.Kit{})

				var got []msg.Message
				ft.Bind("/conf/sink", "conf", func(m msg.Message) { got = append(got, m) })
				violation, _ := faultConfMsgs()
				if err := ft.Send("/conf/sink", violation); err != nil {
					t.Fatal(err)
				}
				pump()

				if len(got) != 1 {
					t.Fatalf("delivered %d messages after delay, want 1", len(got))
				}
				checkDelivered(t, got)
				if n := ft.Counts()[faults.KindDelay]; n != 1 {
					t.Errorf("delay count = %d, want 1", n)
				}
				if n := reg.Counter(tc.prefix + ".sent.violation").Value(); n != 1 {
					t.Errorf("%s.sent.violation = %d, want 1", tc.prefix, n)
				}
			})

			t.Run("reorder", func(t *testing.T) {
				inner, _, clock, after, pump := tc.open(t)
				ft := faults.New(inner, &faults.Plan{Seed: 1, Rules: []faults.Rule{
					{Name: "overtake", Kind: faults.KindReorder, Types: []string{"violation"}},
				}}, clock, after, obs.Kit{})

				var got []msg.Message
				ft.Bind("/conf/sink", "conf", func(m msg.Message) { got = append(got, m) })
				violation, directive := faultConfMsgs()
				if err := ft.Send("/conf/sink", violation); err != nil {
					t.Fatal(err) // held, not lost
				}
				if err := ft.Send("/conf/sink", directive); err != nil {
					t.Fatal(err) // overtakes and flushes the held one
				}
				pump()

				if len(got) != 2 {
					t.Fatalf("delivered %d messages, want both (reorder must not lose)", len(got))
				}
				checkDelivered(t, got)
				tag := func(m msg.Message) string {
					s, err := msg.TypeTag(m.Body)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				if tag(got[0]) != "directive" || tag(got[1]) != "violation" {
					t.Errorf("delivery order = [%s %s], want the directive to overtake", tag(got[0]), tag(got[1]))
				}
			})
		})
	}
}
