package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// TestDefaultWireIsBinaryFrame pins what a NetTransport nobody configured
// puts on a socket: the first byte a plain listener reads is the frame
// magic, the bytes are exactly MarshalWire(WireBinary, …) of the message
// sent — nothing precedes the frame and nothing follows it — and
// msg.net.bytes counts that length.
func TestDefaultWireIsBinaryFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	nt, err := NewNetTransport("hostA", "")
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	reg := telemetry.NewRegistry(nil)
	nt.SetMetrics(reg)

	to := ln.Addr().String()
	m := Message{From: "/hostA/src",
		Trace: telemetry.TraceContext{TraceID: "/hostA/src#1", Span: 2},
		Body: Violation{ID: Identity{Host: "hostA", PID: 7, Executable: "x"}, Policy: "P",
			Readings: map[string]float64{"frame_rate": 12.5}}}
	if err := nt.Send(to, m); err != nil {
		t.Fatal(err)
	}
	want, err := MarshalWire(WireBinary, to, m)
	if err != nil {
		t.Fatal(err)
	}

	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("read %d-byte frame: %v (got % x)", len(want), err, got)
	}
	if got[0] != binMagic {
		t.Fatalf("first byte on the wire = %#x (%q), want frame magic %#x", got[0], got[0], binMagic)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("socket bytes differ from MarshalWire(WireBinary):\n got % x\nwant % x", got, want)
	}
	gotTo, rt, err := UnmarshalWire(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotTo != to {
		t.Errorf("to = %q, want %q", gotTo, to)
	}
	assertSameMessage(t, 0, m, rt)
	if n := reg.Counter("msg.net.bytes").Value(); n != uint64(len(want)) {
		t.Errorf("msg.net.bytes = %d, want the frame length %d", n, len(want))
	}

	_ = nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var extra [1]byte
	if n, err := nc.Read(extra[:]); n != 0 || !isTimeout(err) {
		t.Errorf("unexpected bytes after the frame: n=%d byte=%#x err=%v", n, extra[0], err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestNetTransportBadFrame: a peer whose stream cannot be framed is
// dropped loudly — that connection is closed, msg.net.bad_frame counts it
// once, one msg/wire_bad_frame record names the node, the peer and the
// error class — while a well-formed peer on a second connection is still
// served, and ordinary connection teardown is not counted.
func TestNetTransportBadFrame(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
		class string
	}{
		{"json-line", []byte(`{"from":"/old/peer","type":"ack","body":{"ref":"r","ok":true}}` + "\n"), "not_binary"},
		{"version-2", []byte{binMagic, 2, 1, kindAck}, "bad_version"},
		{"2MiB-length", binary.AppendUvarint([]byte{binMagic, binVersion}, 2<<20), "frame_too_big"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewNetTransport("hostB", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			reg := telemetry.NewRegistry(nil)
			node.SetMetrics(reg)
			lg := eventlog.New(nil, 16)
			node.SetEventLog(lg)
			delivered := make(chan Message, 1)
			node.Bind("/hostB/sink", "hostB", func(m Message) { delivered <- m })

			bad, err := net.Dial("tcp", node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer bad.Close()
			if _, err := bad.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			_ = bad.SetReadDeadline(time.Now().Add(5 * time.Second))
			var one [1]byte
			if n, err := bad.Read(one[:]); n != 0 || err == nil || isTimeout(err) {
				t.Fatalf("node did not close the unframeable connection: n=%d err=%v", n, err)
			}

			good, err := NewNetTransport("hostA", "")
			if err != nil {
				t.Fatal(err)
			}
			good.Route("/hostB/sink", node.Addr())
			if err := good.Send("/hostB/sink", Message{From: "/hostA/src", Body: Ack{Ref: "still-served"}}); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-delivered:
				if a, ok := m.Body.(Ack); !ok || a.Ref != "still-served" {
					t.Errorf("delivered %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("well-formed peer not served after a bad frame on another connection")
			}
			// Closing both ends waits for every read loop, so the
			// good connection's EOF has been seen by the time we count.
			good.Close()
			node.Close()

			if n := reg.Counter("msg.net.bad_frame").Value(); n != 1 {
				t.Errorf("msg.net.bad_frame = %d, want 1", n)
			}
			recs := lg.Records(eventlog.Query{Component: "msg"})
			if len(recs) != 1 {
				t.Fatalf("msg event-log records = %d, want 1: %+v", len(recs), recs)
			}
			r := recs[0]
			if r.Code != "wire_bad_frame" || r.Level != eventlog.Warn {
				t.Errorf("record = %s/%s, want Warn wire_bad_frame", r.Level, r.Code)
			}
			if r.FieldString("node") != "hostB" || r.FieldString("class") != tc.class ||
				r.FieldString("peer") != bad.LocalAddr().String() || r.FieldString("error") == "" {
				t.Errorf("record fields = %+v, want node hostB, peer %s, class %s",
					r.Fields, bad.LocalAddr(), tc.class)
			}
		})
	}
}

// TestNetTransportCarriesEveryKind: two nodes over real TCP deliver every
// corpus message — all 13 kinds, traced and untraced — intact and in
// order, the first on a fresh connection and the rest on the settled one.
func TestNetTransportCarriesEveryKind(t *testing.T) {
	receiver, err := NewNetTransport("hostB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	sender, err := NewNetTransport("hostA", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.Route("/hostB/sink", receiver.Addr())

	var sent []Message
	for _, m := range codecCorpus() {
		if Validate(m) == nil {
			sent = append(sent, m)
		}
	}
	got := make(chan Message, len(sent))
	receiver.Bind("/hostB/sink", "hostB", func(m Message) { got <- m })
	kinds := make(map[byte]bool)
	for _, m := range sent {
		if err := sender.Send("/hostB/sink", m); err != nil {
			t.Fatalf("send %T: %v", m.Body, err)
		}
		k, _ := binKind(m.Body)
		kinds[k] = true
	}
	if len(kinds) != kindPolicyDelta {
		t.Fatalf("corpus covers %d of %d wire kinds", len(kinds), kindPolicyDelta)
	}
	for i, want := range sent {
		select {
		case m := <-got:
			assertSameMessage(t, i, want, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d (%T) never arrived", i, want.Body)
		}
	}
}

// TestBusBytesAreFrameLengthWithoutTrace: msg.bus.bytes charges each
// message the length of its wire frame with the trace context stripped,
// so a traced and an untraced run of one seed count the same bytes.
func TestBusBytesAreFrameLengthWithoutTrace(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s, time.Millisecond, 5*time.Millisecond)
	reg := telemetry.NewRegistry(nil)
	b.SetMetrics(reg)
	b.Bind("/conf/sink", "conf", func(Message) {})
	var want uint64
	for _, m := range oneOfEach() {
		frame, err := MarshalWire(WireBinary, "", m)
		if err != nil {
			t.Fatal(err)
		}
		traced := m
		traced.Trace = telemetry.TraceContext{TraceID: "/h/app/x/1#42", Span: 3}
		for _, send := range []Message{m, traced} {
			if err := b.Send("/conf/sink", send); err != nil {
				t.Fatal(err)
			}
			want += uint64(len(frame))
		}
	}
	if got := reg.Counter("msg.bus.bytes").Value(); got != want {
		t.Errorf("msg.bus.bytes = %d, want %d (sum of untraced frame lengths)", got, want)
	}
}
