package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

func TestMarshalRoundTripAllTypes(t *testing.T) {
	id := Identity{Host: "client-host", PID: 1234, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "physician"}
	bodies := []any{
		Register{ID: id, Sensors: []string{"fps_sensor", "jitter_sensor"}},
		PolicySet{ID: id, Policies: []PolicySpec{{
			Name:       "NotifyQoSViolation",
			Connective: "and",
			Conditions: []CondSpec{
				{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23},
				{Attribute: "frame_rate", Sensor: "fps_sensor", Op: "<", Value: 27},
			},
			Actions: []ActionSpec{{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}}},
		}}},
		Violation{ID: id, Policy: "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 14.5, "buffer_size": 12}},
		Query{From: "/domain", Keys: []string{"cpu_load", "mem_usage"}, Ref: "q1"},
		Report{Host: "server-host", Values: map[string]float64{"cpu_load": 9.7}, Ref: "q1"},
		Alarm{ID: id, Policy: "NotifyQoSViolation", Suspect: "remote",
			Readings: map[string]float64{"buffer_size": 0}},
		Directive{From: "/domain", Action: "boost_cpu", Target: "mpeg_serve", Amount: 10},
		Ack{Ref: "d1", OK: true},
	}
	for _, body := range bodies {
		in := Message{From: "/test/sender", Body: body}
		data, err := MarshalWire(WireBinary, "", in)
		if err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
		_, out, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", body, err)
		}
		if out.From != in.From {
			t.Errorf("%T: from = %q", body, out.From)
		}
		if !reflect.DeepEqual(out.Body, body) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", body, out.Body, body)
		}
	}
}

func TestMarshalUnknownTypeFails(t *testing.T) {
	for _, f := range []WireFormat{WireBinary, WireJSON} {
		if _, err := MarshalWire(f, "", Message{Body: 42}); err == nil {
			t.Errorf("%v: marshalling unknown body type succeeded", f)
		}
	}
}

// TestUnmarshalErrors: text of any shape — including a well-formed JSON
// envelope a pre-binary peer would have sent — is not a frame.
func TestUnmarshalErrors(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"type":"nope","body":{}}`,
		`{"from":"/s","type":"ack","body":{"ref":"r","ok":true}}` + "\n",
		`{"from":"n","type":"hello","body":{"v":1}}`,
	} {
		if _, _, err := UnmarshalWire([]byte(bad)); !errors.Is(err, ErrNotBinary) {
			t.Errorf("UnmarshalWire(%q) = %v, want ErrNotBinary", bad, err)
		}
	}
}

func TestIdentityAddress(t *testing.T) {
	id := Identity{Host: "h1", PID: 42, Executable: "exe", Application: "App"}
	if got := id.Address(); got != "/h1/App/exe/42" {
		t.Errorf("Address = %q", got)
	}
}

func TestBusLocalVsRemoteLatency(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, 100*time.Microsecond, 5*time.Millisecond)
	var localAt, remoteAt sim.Time
	b.Bind("/h1/coord", "h1", func(Message) {})
	b.Bind("/h1/mgr", "h1", func(Message) { localAt = s.Now() })
	b.Bind("/h2/mgr", "h2", func(Message) { remoteAt = s.Now() })

	from := Message{From: "/h1/coord", Body: Ack{Ref: "x", OK: true}}
	if err := b.Send("/h1/mgr", from); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("/h2/mgr", from); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if localAt != sim.At(100*time.Microsecond) {
		t.Errorf("local delivery at %v, want 100µs", localAt)
	}
	if remoteAt != sim.At(5*time.Millisecond) {
		t.Errorf("remote delivery at %v, want 5ms", remoteAt)
	}
}

func TestBusSendToUnboundFails(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Microsecond, time.Millisecond)
	if err := b.Send("/nobody", Message{Body: Ack{}}); err == nil {
		t.Fatal("send to unbound address succeeded")
	}
}

func TestBusUnbindDropsInFlight(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, time.Millisecond)
	delivered := false
	b.Bind("/mgr", "h", func(Message) { delivered = true })
	if err := b.Send("/mgr", Message{From: "/x", Body: Ack{}}); err != nil {
		t.Fatal(err)
	}
	b.Unbind("/mgr")
	s.Run()
	if delivered {
		t.Fatal("message delivered to unbound handler")
	}
	if b.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", b.Dropped)
	}
}

func TestBusRebindReplacesHandler(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, time.Millisecond)
	got := ""
	b.Bind("/mgr", "h", func(Message) { got = "old" })
	b.Bind("/mgr", "h", func(Message) { got = "new" })
	_ = b.Send("/mgr", Message{From: "/x", Body: Ack{}})
	s.Run()
	if got != "new" {
		t.Errorf("handler = %q, want new", got)
	}
}

// TestBusEndpointLifecycle: a message in flight is delivered to whatever
// handler its address holds on arrival — a rebound one included — and is
// dropped and counted if none; the local delay needs both ends bound on
// one host at send time.
func TestBusEndpointLifecycle(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, 5*time.Millisecond)
	reg := telemetry.NewRegistry(nil)
	b.SetMetrics(reg)
	var got []string
	b.Bind("/h1/src", "h1", func(Message) {})
	b.Bind("/h1/mgr", "h1", func(Message) { got = append(got, "old") })
	ack := Message{From: "/h1/src", Body: Ack{Ref: "x", OK: true}}

	// Unbound and rebound while in flight: the new handler receives it.
	if err := b.Send("/h1/mgr", ack); err != nil {
		t.Fatal(err)
	}
	b.Unbind("/h1/mgr")
	if b.Bound("/h1/mgr") {
		t.Fatal("address still bound after Unbind")
	}
	b.Bind("/h1/mgr", "h1", func(Message) { got = append(got, "new") })
	s.Run()
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("in-flight message reached %v, want [new]", got)
	}

	// Unbound for good while in flight: dropped and counted.
	if err := b.Send("/h1/mgr", ack); err != nil {
		t.Fatal(err)
	}
	b.Unbind("/h1/mgr")
	s.Run()
	if len(got) != 1 || b.Dropped != 1 || reg.Counter("msg.bus.dropped").Value() != 1 {
		t.Fatalf("delivered %v, Dropped %d, msg.bus.dropped %d; want one drop",
			got, b.Dropped, reg.Counter("msg.bus.dropped").Value())
	}
	if err := b.Send("/h1/mgr", ack); err == nil {
		t.Fatal("send to an unbound address succeeded")
	}

	// Local delay only between two bound addresses on one host.
	var at sim.Time
	b.Bind("/h1/mgr", "h1", func(Message) { at = s.Now() })
	nop := func(Message) {}
	for _, tc := range []struct {
		step  string
		setup func()
		delay time.Duration
	}{
		{"same host", func() {}, time.Millisecond},
		{"source unbound", func() { b.Unbind("/h1/src") }, 5 * time.Millisecond},
		{"source rebound on another host", func() { b.Bind("/h1/src", "h2", nop) }, 5 * time.Millisecond},
		{"source rebound on the same host", func() { b.Bind("/h1/src", "h1", nop) }, time.Millisecond},
	} {
		tc.setup()
		sent := s.Now()
		if err := b.Send("/h1/mgr", ack); err != nil {
			t.Fatal(err)
		}
		s.Run()
		if d := at.Duration() - sent.Duration(); d != tc.delay {
			t.Errorf("%s: delivered after %v, want %v", tc.step, d, tc.delay)
		}
	}
}

// TestBusDeliveryOrder drives the bus with local and remote sends at
// random instants, follow-up sends made from inside handlers, and
// receivers unbound and rebound while messages are in flight to them.
// Every message bound at its delivery instant must be delivered, in
// (send time + delay, send order) order, to the handler bound then; every
// other one must be dropped.
func TestBusDeliveryOrder(t *testing.T) {
	const local, remote = time.Millisecond, 3 * time.Millisecond
	const ms = sim.Time(time.Millisecond)
	s := sim.New(1)
	b := NewBus(s, local, remote)
	r := rand.New(rand.NewSource(7))
	host := func(addr string) string { return addr[1:3] }
	senders := []string{"/h1/s", "/h2/s"}
	receivers := []string{"/h1/r", "/h2/r", "/h1/q"}

	type sent struct {
		to string
		at sim.Time // due
	}
	var sends []sent // index: send order
	var delivered []int
	send := func(from, to string) bool {
		d := remote
		if host(from) == host(to) {
			d = local
		}
		id := len(sends)
		if b.Send(to, Message{From: from, Body: Ack{Ref: strconv.Itoa(id), OK: true}}) != nil {
			return false // unbound at send time
		}
		sends = append(sends, sent{to, s.Now() + sim.Time(d)})
		return true
	}
	followUps := 0
	gen := map[string]int{}
	bind := func(addr string) {
		gen[addr]++
		g := gen[addr]
		b.Bind(addr, host(addr), func(m Message) {
			id, _ := strconv.Atoi(m.Body.(Ack).Ref)
			if g != gen[addr] {
				t.Errorf("message %d reached binding %d of %s, current is %d", id, g, addr, gen[addr])
			}
			if sends[id].to != addr || sends[id].at != s.Now() {
				t.Errorf("message %d for %s due %v reached %s at %v", id, sends[id].to, sends[id].at, addr, s.Now())
			}
			delivered = append(delivered, id)
			if r.Intn(3) == 0 && send(senders[r.Intn(len(senders))], receivers[r.Intn(len(receivers))]) {
				followUps++
			}
		})
	}
	for _, a := range senders {
		b.Bind(a, host(a), func(Message) {})
	}
	for _, a := range receivers {
		bind(a)
	}
	// Sends on whole milliseconds, so every delivery is due on one too;
	// binding changes half-way between, so none ties with a delivery.
	toggles := map[string][]sim.Time{}
	for i := 0; i < 300; i++ {
		s.Schedule(sim.Time(r.Intn(60))*ms, func() {
			send(senders[r.Intn(len(senders))], receivers[r.Intn(len(receivers))])
		})
	}
	for i := 0; i < 40; i++ {
		at, a := sim.Time(r.Intn(60))*ms+ms/2, receivers[r.Intn(len(receivers))]
		toggles[a] = append(toggles[a], at)
		s.Schedule(at, func() {
			if b.Bound(a) {
				b.Unbind(a)
			} else {
				bind(a)
			}
		})
	}
	s.Run()

	boundAt := func(addr string, at sim.Time) bool {
		bound := true
		for _, tg := range toggles[addr] {
			if tg < at {
				bound = !bound
			}
		}
		return bound
	}
	var want []int
	for id := range sends {
		if boundAt(sends[id].to, sends[id].at) {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return sends[want[i]].at < sends[want[j]].at })
	if !reflect.DeepEqual(delivered, want) {
		t.Fatalf("delivered %v\nwant      %v", delivered, want)
	}
	if drops := uint64(len(sends) - len(want)); b.Dropped != drops || drops == 0 {
		t.Fatalf("Dropped %d, want %d (> 0)", b.Dropped, drops)
	}
	if followUps == 0 {
		t.Fatal("no handler sent a follow-up")
	}
}

// TestBusSendAllocatesNothing: a local and a remote hop — validation,
// byte accounting with metrics attached, queueing and delivery — allocate
// nothing once the queues are at size.
func TestBusSendAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	b.SetMetrics(telemetry.NewRegistry(nil))
	for _, a := range []string{"/h1/mgr", "/h1/coord", "/h2/peer"} {
		b.Bind(a, a[1:3], func(Message) {})
	}
	viol := Message{From: "/h1/coord", Trace: telemetry.TraceContext{TraceID: "t1", Span: 2},
		Body: Violation{ID: Identity{Host: "h1", PID: 7, Executable: "mpeg_play"}, Policy: "P",
			Readings: map[string]float64{"frame_rate": 14.5, "jitter_rate": 0.42}}}
	rep := Message{From: "/h2/peer", Body: Report{Host: "/h2/peer", Values: map[string]float64{"cpu_load": 3}, Ref: "r"}}
	hop := func() {
		if b.Send("/h1/mgr", viol) != nil || b.Send("/h1/mgr", rep) != nil {
			t.Fatal("send failed")
		}
		s.Step()
		s.Step()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if n := testing.AllocsPerRun(1000, hop); n != 0 {
		t.Fatalf("a local and a remote bus hop allocate %v times, want 0", n)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	srv := serveNode(t, func(nt *NetTransport, m Message) {
		if q, ok := m.Body.(Query); ok {
			_ = nt.Send(m.From, Message{From: "/server", Body: Report{
				Host: "server-host", Values: map[string]float64{"cpu_load": 3.5}, Ref: q.Ref}})
		}
	})
	c := dialNode(t, srv)
	if err := c.Send(Message{From: "/client", Body: Query{Keys: []string{"cpu_load"}, Ref: "r7"}}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reply.Body.(Report)
	if !ok {
		t.Fatalf("reply body %T", reply.Body)
	}
	if rep.Ref != "r7" || rep.Values["cpu_load"] != 3.5 {
		t.Errorf("reply = %+v", rep)
	}
}

func TestTCPMultipleMessagesOneConn(t *testing.T) {
	_, c := echoServer(t)
	for i := 0; i < 50; i++ {
		ref := string(rune('a' + i%26))
		if err := c.Send(Message{From: "/c", Body: Ack{Ref: ref, OK: true}}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Body.(Ack).Ref != ref {
			t.Fatalf("echo %d: got %q want %q", i, got.Body.(Ack).Ref, ref)
		}
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, _ := echoServer(t)
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		ref := string(rune('A' + i))
		go func() {
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				// Each client has its own address: the node routes the echo
				// back over the connection it learned that address from.
				if err := c.Send(Message{From: "/c/" + ref, Body: Ack{Ref: ref, OK: true}}); err != nil {
					errs <- err
					return
				}
				got, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if got.Body.(Ack).Ref != ref {
					errs <- fmt.Errorf("cross-talk: got %q want %q", got.Body.(Ack).Ref, ref)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	received := make(chan struct{}, 1)
	srv := serveNode(t, func(*NetTransport, Message) { received <- struct{}{} })
	c := dialNode(t, srv)
	// One delivered message proves the node accepted the connection, so
	// Close has it to close.
	if err := c.Send(Message{From: "/c", Body: Ack{Ref: "hello"}}); err != nil {
		t.Fatal(err)
	}
	<-received
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	_ = srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client Recv not unblocked by server close")
	}
}
