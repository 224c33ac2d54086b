package msg

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"softqos/internal/sim"
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
