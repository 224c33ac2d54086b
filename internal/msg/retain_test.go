package msg

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"softqos/internal/telemetry"
)

// retainable builds the i'th frame of the aliasing tests: every kind the
// live path carries, with content that differs from frame to frame in
// every string, map and slice — far more distinct strings than a
// connection's intern table holds — around a few that repeat.
func retainable(i int) Message {
	id := Identity{Host: fmt.Sprintf("host-%d", i%700), PID: 1 + i, Executable: "mpeg_play",
		Application: fmt.Sprintf("App%d", i%13), UserRole: "viewer"}
	from := id.Address() + "/qosl_coordinator"
	tc := telemetry.TraceContext{TraceID: fmt.Sprintf("%s#%d", id.Address(), i), Span: 1 + i%5}
	key := fmt.Sprintf("attr_%d", i)
	switch i % 6 {
	case 0:
		return Message{From: from, Trace: tc, Body: Violation{ID: id, Policy: fmt.Sprintf("Policy%d", i%900),
			Readings: map[string]float64{"frame_rate": float64(i), key: 0.5, "buffer_size": 2}, Overshoot: i%4 == 0}}
	case 1:
		return Message{From: from, Trace: tc, Body: Alarm{ID: id, Policy: "NotifyQoSViolation", Suspect: fmt.Sprintf("suspect-%d", i),
			Readings: map[string]float64{key: float64(-i)}}}
	case 2:
		return Message{From: from, Body: Query{From: from, Keys: []string{"cpu_load", key, fmt.Sprintf("proc_cpu:%d", i)}, Ref: fmt.Sprintf("e%d", i)}}
	case 3:
		return Message{From: from, Trace: tc, Body: Report{Host: id.Host, Values: map[string]float64{"cpu_load": 0.5, key: float64(i)}, Ref: fmt.Sprintf("e%d", i)}}
	case 4:
		return Message{From: from, Body: Register{ID: id, Sensors: []string{"fps_sensor", key + "_sensor"}}}
	default:
		return Message{From: from, Body: Directive{From: from, Action: fmt.Sprintf("act%d", i%600), Target: key, Amount: float64(i)}}
	}
}

// TestDecodedMessageNotAliased is the guard against buffer reuse or
// interning handing a handler memory that later changes: a handler that
// keeps every Message it is given — strings, maps, slices and all — finds
// each of them exactly as sent after 10 000 later frames of different
// content arrived on the same connection.
func TestDecodedMessageNotAliased(t *testing.T) {
	const frames = 10500
	rx, err := NewNetTransport("rx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	reg := telemetry.NewRegistry(nil)
	rx.SetMetrics(reg)
	tx, err := NewNetTransport("tx", "")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.Route("/rx/sink", rx.Addr())

	var kept []Message // dispatcher goroutine, read after done
	done := make(chan struct{})
	rx.Bind("/rx/sink", "rx", func(m Message) {
		if kept = append(kept, m); len(kept) == frames {
			close(done)
		}
	})
	for i := 0; i < frames; i++ {
		if err := tx.Send("/rx/sink", retainable(i)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("receiver did not see every frame within 30s")
	}
	for i, got := range kept {
		want, err := MarshalWire(WireBinary, "", retainable(i))
		if err != nil {
			t.Fatal(err)
		}
		have, err := MarshalWire(WireBinary, "", got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, want) {
			t.Fatalf("frame %d changed after %d later frames:\nkept %+v\nsent %+v", i, frames-1-i, got, retainable(i))
		}
	}
	// The frames carried far more distinct names than one table holds:
	// the overflow is counted, not silent.
	if n := reg.Counter("msg.net.intern_overflow").Value(); n == 0 {
		t.Error("msg.net.intern_overflow stayed 0 over thousands of distinct names")
	}
}

// TestInternTableBounded: the table hands every repeat of a name the one
// copy it learned, never keeps more than internMaxEntries names or one
// longer than internMaxLen, counts what it could not learn, and never
// returns memory of the buffer it was asked about.
func TestInternTableBounded(t *testing.T) {
	var tab internTable
	buf := []byte("frame_rate")
	a, b := tab.get(buf), tab.get([]byte("frame_rate"))
	copy(buf, "XXXXXXXXXX")
	if a != "frame_rate" || b != "frame_rate" {
		t.Fatalf("interned %q and %q, want frame_rate twice", a, b)
	}
	if got := testing.AllocsPerRun(100, func() { tab.get([]byte("frame_rate")) }); got != 0 {
		t.Errorf("a learned name cost %.0f allocs", got)
	}
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	if tab.get(long); len(tab.m) != 1 || tab.missed != 0 {
		t.Errorf("an over-long string was learned or counted: %d entries, %d missed", len(tab.m), tab.missed)
	}
	for i := 0; len(tab.m) < internMaxEntries; i++ {
		tab.get([]byte(fmt.Sprintf("name-%d", i)))
	}
	if got := tab.get([]byte("one-too-many")); got != "one-too-many" || len(tab.m) != internMaxEntries || tab.missed != 1 {
		t.Errorf("full table: got %q, %d entries, %d missed; want the string, %d, 1", got, len(tab.m), tab.missed, internMaxEntries)
	}
	if tab.get([]byte("frame_rate")); tab.missed != 1 {
		t.Error("a learned name counted as a miss on a full table")
	}
}

// TestInboxRing: deliveries come out in the order they went in across
// growth and wrap-around, and a popped slot keeps nothing reachable.
func TestInboxRing(t *testing.T) {
	var q inbox
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(delivery{m: Message{From: fmt.Sprint(next), Body: Ack{Ref: "r"}}})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if d := q.pop(); d.m.From != fmt.Sprint(want) {
				t.Fatalf("popped %q, want %d", d.m.From, want)
			}
			want++
		}
	}
	push(10)
	pop(7)
	push(13) // wraps, 16 held: full
	push(5)  // grows from a wrapped ring
	pop(q.n)
	for _, step := range []int{1, 40, 3, 100} {
		push(step)
		pop(step)
	}
	if q.n != 0 || want != next {
		t.Fatalf("%d left, popped %d of %d", q.n, want, next)
	}
	for i, d := range q.buf {
		if d.h != nil || d.fn != nil || d.done != nil || d.m.Body != nil || d.m.From != "" {
			t.Fatalf("slot %d still holds %+v after its pop", i, d.m)
		}
	}
}
