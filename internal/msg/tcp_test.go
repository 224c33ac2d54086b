package msg

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// serveNode starts a loopback NetTransport node with one handler, h.
// Frames a raw Conn sends carry no destination, so the node's sole
// handler takes them; h replies with nt.Send to the sender's address,
// which the node learned from the inbound frame.
func serveNode(t *testing.T, h func(nt *NetTransport, m Message)) *NetTransport {
	t.Helper()
	nt, err := NewNetTransport("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nt.Bind("/srv", "srv", func(m Message) { h(nt, m) })
	t.Cleanup(func() { _ = nt.Close() })
	return nt
}

// dialNode connects a raw Conn client to a node.
func dialNode(t *testing.T, nt *NetTransport) *Conn {
	t.Helper()
	c, err := Dial(nt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// echoServer starts a node that sends every message back to its sender
// verbatim, and a client connected to it.
func echoServer(t *testing.T) (*NetTransport, *Conn) {
	t.Helper()
	srv := serveNode(t, func(nt *NetTransport, m Message) { _ = nt.Send(m.From, m) })
	return srv, dialNode(t, srv)
}

func TestTCPLoopbackAllMessageTypes(t *testing.T) {
	_, c := echoServer(t)
	id := Identity{Host: "client-host", PID: 77, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "physician"}
	bodies := []any{
		Register{ID: id, Sensors: []string{"fps_sensor"}},
		PolicySet{ID: id, Policies: []PolicySpec{{
			Name: "P", Connective: "and",
			Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">", Value: 23}},
			Actions:    []ActionSpec{{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}}},
		}}},
		Violation{ID: id, Policy: "P", Readings: map[string]float64{"frame_rate": 12}},
		Query{From: "/domain", Keys: []string{"cpu_load"}, Ref: "q1"},
		Report{Host: "server-host", Values: map[string]float64{"cpu_load": 4.2}, Ref: "q1"},
		Alarm{ID: id, Policy: "P", Suspect: "remote", Readings: map[string]float64{"buffer_size": 0}},
		Directive{From: "/domain", Action: "boost_cpu", Target: "mpeg_serve", Amount: 10},
		Ack{Ref: "d1", OK: true, Err: "detail"},
	}
	if len(bodies) != len(typeTags) {
		t.Fatalf("test covers %d body types, transport has %d", len(bodies), len(typeTags))
	}
	for _, body := range bodies {
		in := Message{From: "/test/sender", Body: body}
		if err := c.Send(in); err != nil {
			t.Fatalf("send %T: %v", body, err)
		}
		out, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", body, err)
		}
		if out.From != in.From {
			t.Errorf("%T: from = %q", body, out.From)
		}
		if !reflect.DeepEqual(out.Body, body) {
			t.Errorf("%T loopback:\n got %+v\nwant %+v", body, out.Body, body)
		}
	}
}

func TestTCPConcurrentSendersOneConn(t *testing.T) {
	const senders, perSender = 8, 25
	received := make(chan string, senders*perSender)
	srv := serveNode(t, func(_ *NetTransport, m Message) {
		a, ok := m.Body.(Ack)
		if !ok {
			received <- fmt.Sprintf("corrupt body %T", m.Body)
			return
		}
		received <- a.Ref
	})
	c := dialNode(t, srv)

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				ref := fmt.Sprintf("s%d-%d", i, j)
				if err := c.Send(Message{From: "/c", Body: Ack{Ref: ref, OK: true}}); err != nil {
					received <- "send error: " + err.Error()
					return
				}
			}
		}(i)
	}
	wg.Wait()

	want := make(map[string]bool, senders*perSender)
	for i := 0; i < senders; i++ {
		for j := 0; j < perSender; j++ {
			want[fmt.Sprintf("s%d-%d", i, j)] = true
		}
	}
	for n := 0; n < senders*perSender; n++ {
		select {
		case ref := <-received:
			if !want[ref] {
				t.Fatalf("message %d: unexpected or duplicate %q", n, ref)
			}
			delete(want, ref)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d messages arrived; missing e.g. %v", n, senders*perSender, firstKey(want))
		}
	}
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

func TestTCPRecvErrorOnPeerClose(t *testing.T) {
	// Server hangs up as soon as the first message arrives; the client's
	// blocked Recv must fail rather than hang.
	srv := serveNode(t, func(nt *NetTransport, _ Message) { nt.SeverConns() })
	c := dialNode(t, srv)
	if err := c.Send(Message{From: "/c", Body: Ack{Ref: "bye"}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after peer close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked by peer close")
	}
}
