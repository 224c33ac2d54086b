package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"softqos/internal/telemetry"
)

// checkInternedDecode holds the connection's decoder to the plain one on
// a buffer holding exactly one frame: through tab, twice — once possibly
// learning, once hitting what it learned — the payload must fail with
// the same error or decode to a message that encodes to the same bytes,
// and that message must point nowhere into the buffer it was decoded
// from (a read loop reuses it for the next frame).
func checkInternedDecode(t *testing.T, tab *internTable, data []byte, wantTo string, want Message, wantErr error) {
	t.Helper()
	if len(data) < 3 || data[0] != binMagic || data[1] != binVersion {
		return
	}
	n, used := binary.Uvarint(data[2:])
	if used <= 0 || n > MaxFrameBytes || uint64(len(data)-2-used) != n {
		return // the framing itself is at fault; no payload decoder ran
	}
	var canon []byte
	if wantErr == nil {
		var err error
		if canon, err = MarshalWire(WireBinary, wantTo, want); err != nil {
			t.Fatalf("re-marshal of the plainly decoded message: %v", err)
		}
	}
	payload := append([]byte(nil), data[2+used:]...)
	for pass := 0; pass < 2; pass++ {
		to, m, err := unmarshalBinaryPayload(payload, tab)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("pass %d: interned decode returned %v, plain decode %v", pass, err, wantErr)
		}
		if err != nil {
			continue
		}
		for i := range payload {
			payload[i] ^= 0xFF
		}
		got, err := MarshalWire(WireBinary, to, m)
		if err != nil || to != wantTo || !bytes.Equal(got, canon) {
			t.Fatalf("pass %d: interned decode differs from plain decode (to %q/%q, err %v):\n%x\n%x", pass, to, wantTo, err, got, canon)
		}
		for i := range payload {
			payload[i] ^= 0xFF
		}
	}
}

// FuzzUnmarshal feeds arbitrary bytes to UnmarshalWire. The invariants
// are absolute: never panic, input that does not open with the frame
// magic is ErrNotBinary, whatever decodes re-encodes to a fixpoint and
// is sized by the size pass to exactly its frame's length
// (checkFrameSize), and a connection's interning decoder agrees with the
// plain one on every input (checkInternedDecode), with a fresh table and
// with one that has seen every earlier input.
// The seed corpus is every corpus message as a frame and as the JSON
// debug rendering (what a pre-binary peer would have sent), plus every
// deterministic malformation the unit tests pin.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range codecCorpus() {
		for _, wf := range []WireFormat{WireJSON, WireBinary} {
			data, err := MarshalWire(wf, "/dest/addr", m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion})
	f.Add([]byte{binMagic, 99, 1, kindAck})
	f.Add(append([]byte{binMagic, binVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	f.Add([]byte{binMagic, binVersion, 4, 77, 0, 0, 0})
	// Repeated structures of the two batch bodies claiming more entries
	// than the payload could hold: alarm-batch entries, summary sketches,
	// sketch buckets.
	f.Add([]byte{binMagic, binVersion, 6, kindAlarmBatch, 0, 0, 0, 0, 0x7F})
	f.Add([]byte{binMagic, binVersion, 11, kindTelemetrySummary, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x7F})
	f.Add(append(append([]byte{binMagic, binVersion, 41, kindTelemetrySummary, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		make([]byte, 24)...), 0, 0, 0xFF, 0x7F))
	// A summary repeating a counter name: it decodes as written (Validate,
	// not the decoder, refuses it), so it must re-encode byte-stably.
	dup, err := MarshalWire(WireBinary, "/d", Message{From: "/h", Body: TelemetrySummary{
		Tier: "host", Source: "/h", Seq: 1, Hosts: 1,
		Counters: []telemetry.NamedValue{{Name: "n", Value: 1}, {Name: "n", Value: 2}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dup)
	f.Add([]byte(`{"type":"ack","body":{"ref":"r","ok":true}}`))
	f.Add([]byte(`{"type":"nosuch","body":{}}`))
	f.Add([]byte(`{"from":"fuzz","type":"hello","body":{"v":1}}`))

	var conn internTable // one table across inputs, as across a connection's frames: it fills up
	f.Fuzz(func(t *testing.T, data []byte) {
		to, m, err := UnmarshalWire(data) // must not panic
		if len(data) == 0 || data[0] != binMagic {
			if !errors.Is(err, ErrNotBinary) {
				t.Fatalf("non-magic input returned %v, want ErrNotBinary", err)
			}
			return
		}
		checkInternedDecode(t, &conn, data, to, m, err)
		checkInternedDecode(t, new(internTable), data, to, m, err)
		if err != nil {
			return
		}
		checkFrameSize(t, m)
		// Decoded successfully: the message must survive a binary
		// re-encode byte-stably (decode → encode is a fixpoint).
		re, err := MarshalWire(WireBinary, to, m)
		if err != nil {
			t.Fatalf("re-marshal of decoded message failed: %v", err)
		}
		to2, m2, err := UnmarshalWire(re)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if to2 != to {
			t.Fatalf("to changed across round-trip: %q -> %q", to, to2)
		}
		re2, err := MarshalWire(WireBinary, to2, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("binary encoding not a fixpoint:\n%x\n%x", re, re2)
		}
	})
}

// FuzzBinaryTruncation: for any decodable binary frame, every strict
// prefix must fail loudly with a typed error — the stream reader depends
// on truncation never decoding as success — and the interning decoder
// must fail on the truncated payload exactly as the plain one does.
func FuzzBinaryTruncation(f *testing.F) {
	for _, m := range codecCorpus() {
		data, err := MarshalWire(WireBinary, "/d", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 5)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if len(data) == 0 || data[0] != binMagic {
			return
		}
		if _, _, err := UnmarshalWire(data); err != nil {
			return // not a valid frame to begin with
		}
		if cut < 0 {
			cut = -cut
		}
		cut %= len(data) // strict prefix: 0..len-1
		_, _, err := UnmarshalWire(data[:cut])
		// The same truncated payload behind a header that admits it: the
		// connection's decoder must fail on it exactly as the plain one does.
		if _, used := binary.Uvarint(data[2:]); cut > 2+used {
			payload := data[2+used : cut]
			reframed := binary.AppendUvarint([]byte{binMagic, binVersion}, uint64(len(payload)))
			reframed = append(reframed, payload...)
			to, m, perr := UnmarshalWire(reframed)
			checkInternedDecode(t, new(internTable), reframed, to, m, perr)
		}
		if err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame decoded successfully", cut, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooBig) &&
			!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadKind) &&
			!errors.Is(err, ErrTrailingBytes) && !errors.Is(err, ErrNotBinary) {
			t.Fatalf("prefix error is untyped: %v", err)
		}
	})
}

// FuzzPolicyDelta targets the newest wire kind specifically: arbitrary
// bytes never panic the decoder, strict prefixes of a valid binary
// delta frame fail with typed errors, and a delta built from fuzzed
// fields round-trips to the same canonical encoding (same comparison as
// FuzzCodecRoundTrip).
func FuzzPolicyDelta(f *testing.F) {
	f.Add(uint64(7), uint64(6), "mpeg_play", "canary", "h-0", "P", 24.0, []byte{})
	f.Add(uint64(1), uint64(0), "x", "fleet", "", "", -0.5, []byte{binMagic})
	f.Add(uint64(1<<63), uint64(0), "ünïcode", "rollback", "h \"q\" <>&", "Q", 1e300, []byte{binMagic, binVersion})
	for _, m := range codecCorpus() {
		if _, ok := m.Body.(PolicyDelta); !ok {
			continue
		}
		data, err := MarshalWire(WireBinary, "/d", m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint64(2), uint64(1), "x", "fleet", "h", "P", 0.0, data)
	}
	f.Fuzz(func(t *testing.T, gen, prev uint64, exe, scope, host, policy string, val float64, raw []byte) {
		// Leg 1: the raw bytes through the decoder — must not panic, and
		// if they decode, truncation of every strict prefix must be loud
		// and typed when the frame is binary.
		if _, _, err := UnmarshalWire(raw); err == nil &&
			len(raw) > 0 && raw[0] == binMagic {
			for n := 1; n < len(raw); n++ {
				_, _, err := UnmarshalWire(raw[:n])
				if err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte frame decoded successfully", n, len(raw))
				}
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooBig) &&
					!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadKind) &&
					!errors.Is(err, ErrTrailingBytes) {
					t.Fatalf("prefix error is untyped: %v", err)
				}
			}
		}

		// Leg 2: a delta built from the fuzzed fields must round-trip.
		m := Message{From: "/mgmt/repo", Body: PolicyDelta{
			Generation: gen, Prev: prev, Executable: exe, Scope: scope,
			Hosts: []string{host},
			Policies: []PolicySpec{{Name: policy, Connective: "and",
				Conditions: []CondSpec{{Attribute: policy, Sensor: exe, Op: ">=", Value: val}},
				Actions:    []ActionSpec{{Target: exe, Op: "read", Args: []string{policy}}}}},
			Reason: scope}}
		canon, err := MarshalWire(WireBinary, "/dest", m)
		if err != nil {
			t.Fatal(err)
		}
		to, got, err := UnmarshalWire(canon)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if to != "/dest" || got.From != m.From {
			t.Fatalf("envelope changed: to=%q from=%q", to, got.From)
		}
		again, err := MarshalWire(WireBinary, to, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("canonical encodings differ:\n%x\n%x", canon, again)
		}
	})
}

// FuzzCodecRoundTrip builds one message of each kind from fuzzed field
// values — the two batch bodies, AlarmBatch and TelemetrySummary,
// included — and requires the codec to carry it losslessly (modulo the
// documented nil/empty map normalization, checked via canonical
// re-encode), through the plain decoder and through one connection's
// interning decoder, and the size pass to count its frame exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("/h/app/x/1", "/mgmt/agent", "frame_rate", 14.5, uint64(3), true, "trace#1")
	f.Add("", "", "", -0.25, uint64(0), false, "")
	f.Add("/h/über", "weird \"to\" <>&", "ünïcode\n\t", 1e308, uint64(1<<63), true, "t")
	f.Fuzz(func(t *testing.T, from, to, attr string, val float64, seq uint64, flag bool, traceID string) {
		id := Identity{Host: from, PID: int(seq % 1 << 16), Executable: attr, Application: "app"}
		msgs := []Message{
			{From: from, Body: Violation{ID: id, Policy: attr,
				Readings: map[string]float64{attr: val}, Overshoot: flag}},
			{From: from, Body: Report{Host: from, Values: map[string]float64{attr: val}, Ref: attr}},
			{From: from, Body: Heartbeat{ID: id, Seq: seq}},
			{From: from, Body: Ack{Ref: attr, OK: flag, Err: to}},
			{From: from, Body: Query{From: from, Keys: []string{attr, to}, Ref: attr}},
			{From: from, Body: AlarmBatch{Tier: attr,
				Alarms: []BatchedAlarm{
					{Alarm: Alarm{ID: id, Policy: attr, Suspect: to, Readings: map[string]float64{attr: val}},
						Count: int(seq % (1 << 20)), Severity: int(seq % 7)},
					{Alarm: Alarm{ID: id, Policy: to}, Count: 1}},
				Summary: map[string]float64{attr: val, to: -val}}},
			{From: from, Body: TelemetrySummary{Tier: attr, Source: from, Seq: seq, Hosts: seq % (1 << 10),
				Counters: []telemetry.NamedValue{{Name: attr, Value: val}, {Name: to, Value: -val}},
				Maxima:   []telemetry.NamedValue{{Name: to, Value: val}},
				Sketches: []telemetry.NamedSketchSnapshot{
					{Name: attr, Sketch: telemetry.SketchSnapshot{Count: seq, Sum: val, Min: -val, Max: val,
						Zero: seq % 3, Base: int(seq%2048) - 1024, Counts: []uint64{seq, 0, seq % 5}}},
					{Name: to}}}},
		}
		if traceID != "" {
			msgs[0].Trace = telemetry.TraceContext{TraceID: traceID, Span: int(seq % 1 << 20)}
		}
		var conn internTable
		for i, m := range msgs {
			want, err := MarshalWire(WireBinary, to, m)
			if err != nil {
				t.Fatalf("message %d: marshal: %v", i, err)
			}
			gotTo, got, err := UnmarshalWire(want)
			if err != nil {
				t.Fatalf("message %d: unmarshal: %v", i, err)
			}
			checkInternedDecode(t, &conn, want, gotTo, got, nil)
			checkFrameSize(t, m)
			if gotTo != to {
				t.Fatalf("message %d: to = %q, want %q", i, gotTo, to)
			}
			if got.From != m.From || got.Trace != m.Trace {
				t.Fatalf("message %d: envelope changed: %+v", i, got)
			}
			// Canonical comparison: the original and the decoded message
			// must produce identical encodings.
			again, err := MarshalWire(WireBinary, gotTo, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, again) {
				t.Fatalf("message %d: canonical encodings differ:\n%x\n%x", i, want, again)
			}
		}
	})
}
