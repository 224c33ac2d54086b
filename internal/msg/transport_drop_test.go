package msg

import (
	"errors"
	"testing"

	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// TestDropLoggerStructuredReport verifies the invalid-envelope drop path
// reports node, src, dest, kind and cause as one structured event-log
// record, and counts it.
func TestDropLoggerStructuredReport(t *testing.T) {
	nt, err := NewNetTransport("h1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	lg := eventlog.New(nil, 0)
	nt.SetEventLog(lg)
	reg := telemetry.NewRegistry(nil)
	nt.SetMetrics(reg)

	// A directive without an action decodes fine but fails Validate.
	bad := Message{From: "/h1/coord", Body: Directive{Target: "frame_skip"}}
	err = nt.Send("/h1/agent", bad)
	var se *SendError
	if !errors.As(err, &se) || se.Kind != ErrInvalid {
		t.Fatalf("send error = %v, want ErrInvalid SendError", err)
	}

	drops := lg.Records(eventlog.Query{Component: "msg"})
	if len(drops) != 1 || drops[0].Code != "invalid_drop" || drops[0].Level != eventlog.Warn {
		t.Fatalf("drop records = %+v, want one warn invalid_drop", drops)
	}
	d := drops[0]
	if d.FieldString("node") != "h1" || d.FieldString("from") != "/h1/coord" ||
		d.FieldString("to") != "/h1/agent" || d.FieldString("kind") != "directive" {
		t.Errorf("drop record fields = %+v, want node h1, /h1/coord -> /h1/agent, kind directive", d.Fields)
	}
	if d.FieldString("error") == "" {
		t.Error("drop record carries no error")
	}
	if n := reg.Counter("msg.net.dropped_invalid").Value(); n != 1 {
		t.Errorf("msg.net.dropped_invalid = %d, want 1", n)
	}

	// A body type the envelope codec does not know reports kind "?".
	_ = nt.Send("/h1/agent", Message{From: "/h1/coord", Body: struct{ X int }{1}})
	drops = lg.Records(eventlog.Query{Component: "msg"})
	if len(drops) != 2 || drops[1].FieldString("kind") != "?" {
		t.Fatalf("unknown body kind = %+v, want ?", drops)
	}
}
