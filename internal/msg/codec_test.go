package msg

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"softqos/internal/telemetry"
)

// codecCorpus is one message of every type with awkward field contents:
// empty strings, unicode, JSON-escaping hazards, zero and negative
// numbers. NaN and Inf are excluded (the debug rendering cannot carry
// them).
func codecCorpus() []Message {
	id := Identity{Host: "h-1", PID: 4321, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer"}
	return []Message{
		{From: "/h/app/x/1", Body: Register{ID: id, Sensors: []string{"fps_sensor"}}},
		{From: "", Body: Register{}},
		{From: "/mgmt/agent", Body: PolicySet{ID: id, Policies: []PolicySpec{{
			Name: "P", Connective: "and",
			Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "s", Op: ">=", Value: 24}},
			Actions:    []ActionSpec{{Target: "s", Op: "read", Args: []string{"frame_rate"}}},
		}, {Name: "Q", Connective: "or"}}}},
		{From: "/h/app/x/1", Body: Violation{ID: id, Policy: "P",
			Readings: map[string]float64{"frame_rate": 14.5, "z": -0.25, "a": 0}, Overshoot: true}},
		{From: "/h/app/x/1", Trace: telemetry.TraceContext{TraceID: "/h/app/x/1#7", Span: 3},
			Body: Violation{ID: id, Policy: "P"}},
		{From: "/mgmt/dm", Body: Query{From: "/mgmt/dm", Keys: []string{"cpu_load", "proc_cpu:42"}, Ref: "q1"}},
		{From: "/h/hm", Body: Report{Host: "h", Values: map[string]float64{"cpu_load": 3.5}, Ref: "q1"}},
		{From: "/h/hm", Body: Alarm{ID: id, Policy: "P", Suspect: "network",
			Readings: map[string]float64{"frame_rate": 10}}},
		{From: "/mgmt/dm", Body: Directive{From: "/mgmt/dm", Action: "boost_cpu", Target: "mpeg_serv", Amount: -2.5}},
		{From: "/h/hm", Body: Ack{Ref: "boost_cpu", OK: true}},
		{From: "/h/hm", Body: Ack{Ref: "x", OK: false, Err: "no such process"}},
		{From: "/mgmt/agent", Body: Nack{ID: id, Ref: "register", Reason: "repository \"down\" <unavailable> & gone"}},
		{From: "/h/app/x/1", Body: Heartbeat{ID: id, Seq: 18446744073709551615}},
		{From: "/h/über/x/1", Body: Ack{Ref: "ünïcode\n\ttab"}},
		{From: "/mgmt/dm-0", Body: AlarmBatch{Tier: "domain",
			Alarms: []BatchedAlarm{
				{Alarm: Alarm{ID: id, Policy: "P", Suspect: "network",
					Readings: map[string]float64{"cpu_load": 3.5, "frame_rate": 10}},
					Count: 4, Severity: 2},
				{Alarm: Alarm{ID: id, Policy: "Q"}, Count: 1},
			},
			Summary: map[string]float64{"domain_saturation": 0.125, "hosts": 64}}},
		{From: "/mgmt/dm-1", Body: AlarmBatch{Tier: "domain",
			Summary: map[string]float64{"domain_saturation": 0}}},
		{From: "/h/hm-3", Trace: telemetry.TraceContext{TraceID: "/h/app/x/1#9", Span: 2},
			Body: TelemetrySummary{Tier: "host", Source: "/h/hm-3", Seq: 12, Hosts: 1,
				Counters: []telemetry.NamedValue{
					{Name: "fleet.alarms_raised", Value: 3}, {Name: "ünïcode", Value: -0.5}},
				Maxima: []telemetry.NamedValue{{Name: "fleet.cpu_load_max", Value: 7.25}},
				Sketches: []telemetry.NamedSketchSnapshot{
					{Name: "fleet.load", Sketch: telemetry.SketchSnapshot{
						Count: 7, Sum: 21.5, Min: 0, Max: 9.5, Zero: 2,
						Base: -3, Counts: []uint64{1, 0, 3, 1}}},
					{Name: "fleet.detect_adapt_ns", Sketch: telemetry.SketchSnapshot{
						Count: 1, Sum: 5e6, Min: 5e6, Max: 5e6,
						Base: 317, Counts: []uint64{1}}},
				}}},
		{From: "/mgmt/dm-0", Body: TelemetrySummary{Tier: "domain", Source: "/mgmt/dm-0", Seq: 1}},
		{From: "/mgmt/repo", Body: PolicyDelta{Generation: 7, Prev: 6,
			Executable: "mpeg_play", Scope: "canary",
			Hosts: []string{"h-0", "h-3"},
			Policies: []PolicySpec{{
				Name: "P", Connective: "and",
				Conditions: []CondSpec{{Attribute: "frame_rate", Sensor: "s", Op: ">=", Value: 24}},
				Actions:    []ActionSpec{{Target: "s", Op: "read", Args: []string{"frame_rate"}}},
			}},
			Reason: "canary start <g7> \"bake\""}},
		{From: "/mgmt/repo", Trace: telemetry.TraceContext{TraceID: "/mgmt/repo#4", Span: 1},
			Body: PolicyDelta{Generation: 8, Prev: 7, Executable: "mpeg_play",
				Scope: "rollback", Reason: "fast-burn breach"}},
		{From: "/mgmt/repo", Body: PolicyDelta{Generation: 18446744073709551615,
			Prev: 18446744073709551614, Executable: "ünïcode", Scope: "fleet"}},
	}
}

// TestBinaryRoundTrip: every corpus message survives the binary codec
// with its routing address, trace context and body intact.
func TestBinaryRoundTrip(t *testing.T) {
	for i, m := range codecCorpus() {
		data, err := MarshalWire(WireBinary, "/dest/addr", m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		to, got, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if to != "/dest/addr" {
			t.Errorf("message %d: to = %q", i, to)
		}
		assertSameMessage(t, i, m, got)
	}
}

// TestJSONDebugRendering: WireJSON is encode-only — every corpus message
// renders as one valid JSON envelope naming its type, and the decoder
// refuses it like any other non-frame input.
func TestJSONDebugRendering(t *testing.T) {
	for i, m := range codecCorpus() {
		data, err := MarshalWire(WireJSON, "/dest/addr", m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		var env struct {
			From, To, Type string
			Trace          *telemetry.TraceContext
			Body           json.RawMessage
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("message %d: rendering is not JSON: %v\n%s", i, err, data)
		}
		tag, _ := typeTag(m.Body)
		if env.From != m.From || env.To != "/dest/addr" || env.Type != tag || len(env.Body) == 0 {
			t.Errorf("message %d: envelope = %+v", i, env)
		}
		if m.Trace.Valid() != (env.Trace != nil) || (env.Trace != nil && *env.Trace != m.Trace) {
			t.Errorf("message %d: trace rendered as %+v, want %+v", i, env.Trace, m.Trace)
		}
		if _, _, err := UnmarshalWire(data); !errors.Is(err, ErrNotBinary) {
			t.Errorf("message %d: UnmarshalWire(JSON rendering) = %v, want ErrNotBinary", i, err)
		}
	}
}

// assertSameMessage compares a decoded message against the original.
// The decoder normalizes empty omitted maps/slices to nil, so the
// comparison normalizes the original the same way: an encoding/json
// round-trip of the body into a fresh value.
func assertSameMessage(t *testing.T, i int, want, got Message) {
	t.Helper()
	if got.From != want.From {
		t.Errorf("message %d: from = %q, want %q", i, got.From, want.From)
	}
	if got.Trace != want.Trace {
		t.Errorf("message %d: trace = %+v, want %+v", i, got.Trace, want.Trace)
	}
	wantTag, _ := typeTag(want.Body)
	ref, err := json.Marshal(want.Body)
	if err != nil {
		t.Fatal(err)
	}
	norm := reflect.New(reflect.TypeOf(want.Body))
	if err := json.Unmarshal(ref, norm.Interface()); err != nil {
		t.Fatal(err)
	}
	gotTag, err := typeTag(got.Body)
	if err != nil {
		t.Fatalf("message %d: %v", i, err)
	}
	if gotTag != wantTag {
		t.Fatalf("message %d: type %q, want %q", i, gotTag, wantTag)
	}
	if want := norm.Elem().Interface(); !reflect.DeepEqual(got.Body, want) {
		t.Errorf("message %d: body = %#v, want %#v", i, got.Body, want)
	}
}

// TestBinaryFrameErrors: malformed frames come back as the documented
// typed errors, never panics, never silent success.
func TestBinaryFrameErrors(t *testing.T) {
	good, err := MarshalWire(WireBinary, "/d", Message{From: "/s", Body: Ack{Ref: "r", OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty-is-json", []byte{}, ErrNotBinary}, // no magic byte: whatever it is, it is not a frame
		{"magic-only", []byte{binMagic}, ErrTruncated},
		{"bad-version", []byte{binMagic, 99, 1, kindAck}, ErrBadVersion},
		{"no-length", []byte{binMagic, binVersion}, ErrTruncated},
		{"oversized-claim", append([]byte{binMagic, binVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), ErrFrameTooBig},
		{"truncated-payload", good[:len(good)-3], ErrTruncated},
		{"trailing-bytes", append(append([]byte(nil), good...), 0xAB), ErrTrailingBytes},
		{"bad-kind", []byte{binMagic, binVersion, 4, 77, 0, 0, 0}, ErrBadKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := UnmarshalWire(tc.data)
			if err == nil {
				t.Fatal("malformed frame decoded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestBinaryTruncationSweep: every prefix of a valid frame errors
// cleanly (the streaming reader depends on truncation being loud).
func TestBinaryTruncationSweep(t *testing.T) {
	for i, m := range codecCorpus() {
		data, err := MarshalWire(WireBinary, "/dest", m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if _, _, err := UnmarshalWire(data[:n]); err == nil {
				t.Fatalf("message %d: %d-byte prefix of %d decoded without error", i, n, len(data))
			}
		}
	}
}

// TestBinaryEncodingDeterministic: equal messages (including map-heavy
// ones) encode to equal bytes, so byte accounting and goldens are a
// pure function of traffic.
func TestBinaryEncodingDeterministic(t *testing.T) {
	m := Message{From: "/s", Body: Report{Host: "h", Ref: "r",
		Values: map[string]float64{"c": 3, "a": 1, "b": 2, "e": 5, "d": 4}}}
	first, err := MarshalWire(WireBinary, "/d", m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		again, err := MarshalWire(WireBinary, "/d", m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("iteration %d: encoding varied:\n%x\n%x", i, first, again)
		}
	}
}

// summaryFrameHex is the corpus's traced host summary (Seq 12) as a frame
// to "/dest/addr", recorded when Counters and Maxima were maps encoded in
// sorted key order: the name-sorted lists must write the same bytes.
const summaryFrameHex = "bf01dd010c072f682f686d2d330a2f646573742f61646472010c2f682f6170702f782f3123390404686f7374072f682f686d2d330c010213666c6565742e616c61726d735f726169736564000000000000084009c3bc6ec3af636f6465000000000000e0bf0112666c6565742e6370755f6c6f61645f6d61780000000000001d40020a666c6565742e6c6f6164070000000000803540000000000000000000000000000023400205040100030115666c6565742e6465746563745f61646170745f6e730100000000d012534100000000d012534100000000d012534100fa040101"

// TestTelemetrySummaryFramePinned: the summary frame is byte-identical to
// the one the map-based body encoded.
func TestTelemetrySummaryFramePinned(t *testing.T) {
	for _, m := range codecCorpus() {
		if ts, ok := m.Body.(TelemetrySummary); !ok || ts.Seq != 12 {
			continue
		}
		data, err := MarshalWire(WireBinary, "/dest/addr", m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != summaryFrameHex {
			t.Fatalf("summary frame changed:\n got %s\nwant %s", got, summaryFrameHex)
		}
		return
	}
	t.Fatal("corpus lost its host summary")
}

// checkFrameSize fails unless the size pass counts exactly the bytes of
// m's unrouted frame, with its trace context and without.
func checkFrameSize(t testing.TB, m Message) {
	t.Helper()
	untraced := m
	untraced.Trace = telemetry.TraceContext{}
	for _, tc := range []struct {
		traced bool
		enc    Message
	}{{true, m}, {false, untraced}} {
		frame, err := MarshalWire(WireBinary, "", tc.enc)
		if err != nil {
			t.Fatalf("%T: marshal: %v", m.Body, err)
		}
		if got := frameSize(&m, tc.traced); got != uint64(len(frame)) {
			t.Fatalf("%T (traced %v): frameSize = %d, frame is %d bytes", m.Body, tc.traced, got, len(frame))
		}
	}
}

// TestFrameSizeMatchesEncoding: the size the transports charge equals the
// frame the encoder writes, for every message type, traced or not.
func TestFrameSizeMatchesEncoding(t *testing.T) {
	// Numbers wide enough that every varint takes several bytes.
	big := Identity{Host: "h", PID: -1 << 40, Executable: "x"}
	wide := []Message{
		{From: "/h", Body: Heartbeat{ID: big, Seq: 1 << 63}},
		{From: "/h", Body: PolicyDelta{Generation: 1 << 50, Prev: 300, Executable: "x"}},
		{From: "/h", Body: AlarmBatch{Tier: "d", Alarms: []BatchedAlarm{{Alarm: Alarm{ID: big}, Count: 1 << 27, Severity: -70000}}}},
		{From: "/h", Body: TelemetrySummary{Tier: "host", Source: "/h", Seq: 1 << 35, Hosts: 20000,
			Sketches: []telemetry.NamedSketchSnapshot{{Name: "s", Sketch: telemetry.SketchSnapshot{
				Count: 1 << 33, Zero: 1 << 40, Base: -5000, Counts: []uint64{1 << 20, 0, 1 << 62}}}}}},
	}
	for _, m := range append(append(codecCorpus(), oneOfEach()...), wide...) {
		checkFrameSize(t, m)
		m.Trace = telemetry.TraceContext{TraceID: "t-0123456789", Span: -300}
		checkFrameSize(t, m)
	}
	if frameSize(&Message{Body: 42}, true) != 0 {
		t.Fatal("frameSize of an unencodable body is not 0")
	}
}
