package msg

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"softqos/internal/telemetry"
)

// WireFormat names an encoding MarshalWire can produce. Transports have
// no format to select: Bus, Conn and NetTransport account, frame and
// send WireBinary only (see docs/WIRE.md for the layout).
type WireFormat int

const (
	// WireBinary is the wire: the length-prefixed binary frame — magic
	// byte, version byte, uvarint payload length, payload. It is the
	// zero WireFormat.
	WireBinary WireFormat = iota
	// WireJSON is an encode-only debug rendering of a frame (one JSON
	// envelope, no trailing newline) for tools that print messages. No
	// transport sends it and UnmarshalWire rejects it.
	WireJSON
)

func (f WireFormat) String() string {
	if f == WireJSON {
		return "json"
	}
	return "binary"
}

const (
	// binMagic opens every frame. 0xBF is not a valid first byte of
	// UTF-8 text, so a peer speaking anything else is detected on the
	// first byte it sends.
	binMagic = 0xBF
	// binVersion is the current binary payload layout version.
	binVersion = 1
	// MaxFrameBytes caps a binary frame's declared payload length.
	// Frames claiming more are rejected before any allocation, so a
	// corrupt or hostile length prefix cannot balloon memory.
	MaxFrameBytes = 1 << 20
)

// Typed decode errors. Transports and fuzzers distinguish these from
// generic decode failures: a truncated frame on a stream means "read
// more", while trailing bytes or a bad version mean the peer is broken.
var (
	// ErrNotBinary: the buffer does not start with the binary magic.
	ErrNotBinary = errors.New("msg: not a binary frame")
	// ErrBadVersion: the frame's version byte is unknown to this node.
	ErrBadVersion = errors.New("msg: unsupported binary frame version")
	// ErrFrameTooBig: the declared payload length exceeds MaxFrameBytes.
	ErrFrameTooBig = errors.New("msg: binary frame exceeds size cap")
	// ErrTruncated: the buffer ends before the declared frame does.
	ErrTruncated = errors.New("msg: truncated binary frame")
	// ErrTrailingBytes: bytes follow a complete frame in a buffer that
	// should contain exactly one frame.
	ErrTrailingBytes = errors.New("msg: trailing bytes after binary frame")
	// ErrBadKind: the payload names a message kind this node lacks.
	ErrBadKind = errors.New("msg: unknown binary message kind")
)

// Binary payload kind bytes, one per management message type.
const (
	kindRegister         = 1
	kindPolicySet        = 2
	kindViolation        = 3
	kindQuery            = 4
	kindReport           = 5
	kindAlarm            = 6
	kindDirective        = 7
	kindAck              = 8
	kindNack             = 9
	kindHeartbeat        = 10
	kindAlarmBatch       = 11
	kindTelemetrySummary = 12
	kindPolicyDelta      = 13
)

func binKind(body any) (byte, error) {
	switch body.(type) {
	case Register:
		return kindRegister, nil
	case PolicySet:
		return kindPolicySet, nil
	case Violation:
		return kindViolation, nil
	case Query:
		return kindQuery, nil
	case Report:
		return kindReport, nil
	case Alarm:
		return kindAlarm, nil
	case Directive:
		return kindDirective, nil
	case Ack:
		return kindAck, nil
	case Nack:
		return kindNack, nil
	case Heartbeat:
		return kindHeartbeat, nil
	case AlarmBatch:
		return kindAlarmBatch, nil
	case TelemetrySummary:
		return kindTelemetrySummary, nil
	case PolicyDelta:
		return kindPolicyDelta, nil
	default:
		return 0, fmt.Errorf("msg: unknown body type %T", body)
	}
}

// frameBuf is a pooled encode buffer: one per frame in flight, holding
// the whole frame — header and payload — so a transport hands the
// socket one slice. The pool holds pointers, so returning a buffer does
// not box a slice header.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

func getFrameBuf() *frameBuf  { return framePool.Get().(*frameBuf) }
func putFrameBuf(f *frameBuf) { framePool.Put(f) }

// frameHeaderRoom is the space encode reserves ahead of the payload:
// magic, version and the longest uvarint.
const frameHeaderRoom = 2 + binary.MaxVarintLen64

// encode renders m as one routed frame inside f and returns it. The
// payload is encoded in place behind room reserved for the header, whose
// length depends on the payload's; the header is then written
// right-aligned against the payload. The frame aliases f and is valid
// until f is encoded into again or returned to the pool.
func (f *frameBuf) encode(to string, m Message) ([]byte, error) {
	var room [frameHeaderRoom]byte
	b, err := appendBinaryPayload(append(f.b[:0], room[:]...), to, m)
	if err != nil {
		return nil, err
	}
	f.b = b
	n := uint64(len(b) - frameHeaderRoom)
	start := frameHeaderRoom - 2 - uvarintLen(n)
	b[start], b[start+1] = binMagic, binVersion
	binary.PutUvarint(b[start+2:], n)
	return b[start:], nil
}

// uvarintLen returns how many bytes binary.AppendUvarint uses for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// frameSize returns the length of m's unrouted wire frame — what the
// transports charge a message they deliver without a socket — without
// encoding it, or 0 for a message that cannot be encoded (which Validate
// has ruled out). With traced false the trace context is left out:
// tracing is out-of-band metadata, so the Bus charges traced and
// untraced runs of one seed the same bytes.
func frameSize(m *Message, traced bool) uint64 {
	n := payloadSize(m, traced)
	if n == 0 { // unknown body
		return 0
	}
	return uint64(2 + uvarintLen(uint64(n)) + n)
}

// MarshalWire encodes one routed frame. WireBinary is the complete
// frame exactly as a transport puts it on the socket (magic, version,
// length, payload); WireJSON is the debug rendering.
func MarshalWire(f WireFormat, to string, m Message) ([]byte, error) {
	if f == WireJSON {
		return marshalDebugJSON(to, m)
	}
	fb := getFrameBuf()
	frame, err := fb.encode(to, m)
	var out []byte
	if err == nil {
		out = make([]byte, len(frame)) // the one allocation: exactly the frame
		copy(out, frame)
	}
	putFrameBuf(fb)
	return out, err
}

// marshalDebugJSON renders a routed message as one JSON envelope with an
// explicit type tag; To and Trace appear only when set.
func marshalDebugJSON(to string, m Message) ([]byte, error) {
	tag, err := typeTag(m.Body)
	if err != nil {
		return nil, err
	}
	env := struct {
		From  string                  `json:"from"`
		To    string                  `json:"to,omitempty"`
		Type  string                  `json:"type"`
		Trace *telemetry.TraceContext `json:"trace,omitempty"`
		Body  any                     `json:"body"`
	}{From: m.From, To: to, Type: tag, Body: m.Body}
	if m.Trace.Valid() {
		env.Trace = &m.Trace
	}
	return json.Marshal(env)
}

// ---------------------------------------------------------------------------
// Binary encode

func appendBinaryPayload(dst []byte, to string, m Message) ([]byte, error) {
	kind, err := binKind(m.Body)
	if err != nil {
		return nil, err
	}
	dst = append(dst, kind)
	dst = appendBinString(dst, m.From)
	dst = appendBinString(dst, to)
	if m.Trace.Valid() {
		dst = append(dst, 1)
		dst = appendBinString(dst, m.Trace.TraceID)
		dst = binary.AppendVarint(dst, int64(m.Trace.Span))
	} else {
		dst = append(dst, 0)
	}
	switch b := m.Body.(type) {
	case Register:
		return appendBinRegister(dst, &b), nil
	case PolicySet:
		return appendBinPolicySet(dst, &b), nil
	case Violation:
		return appendBinViolation(dst, &b), nil
	case Query:
		return appendBinQuery(dst, &b), nil
	case Report:
		return appendBinReport(dst, &b), nil
	case Alarm:
		return appendBinAlarm(dst, &b), nil
	case Directive:
		return appendBinDirective(dst, &b), nil
	case Ack:
		return appendBinAck(dst, &b), nil
	case Nack:
		return appendBinNack(dst, &b), nil
	case Heartbeat:
		return appendBinHeartbeat(dst, &b), nil
	case AlarmBatch:
		return appendBinAlarmBatch(dst, &b), nil
	case TelemetrySummary:
		return appendBinTelemetrySummary(dst, &b), nil
	case PolicyDelta:
		return appendBinPolicyDelta(dst, &b), nil
	}
	return nil, fmt.Errorf("msg: unknown body type %T", m.Body)
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBinBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendBinMap encodes a string→float64 map with keys sorted, so the
// encoding is a pure function of the map's contents.
func appendBinMap(dst []byte, m map[string]float64) []byte {
	var buf [8]telemetry.NamedValue // the maps of the live path hold 3 or 4 keys: sorted on the stack
	vs := buf[:0]
	for k, v := range m {
		vs = append(vs, telemetry.NamedValue{Name: k, Value: v})
	}
	slices.SortFunc(vs, func(a, b telemetry.NamedValue) int { return strings.Compare(a.Name, b.Name) })
	return appendBinValues(dst, vs)
}

// appendBinValues encodes a name/value list in its order; appendBinMap
// writes a map as its name-sorted list.
func appendBinValues(dst []byte, vs []telemetry.NamedValue) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendBinString(dst, v.Name)
		dst = appendBinF64(dst, v.Value)
	}
	return dst
}

func appendBinStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendBinString(dst, s)
	}
	return dst
}

func appendBinIdentity(dst []byte, id *Identity) []byte {
	dst = appendBinString(dst, id.Host)
	dst = binary.AppendVarint(dst, int64(id.PID))
	dst = appendBinString(dst, id.Executable)
	dst = appendBinString(dst, id.Application)
	return appendBinString(dst, id.UserRole)
}

func appendBinRegister(dst []byte, b *Register) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return appendBinStrings(dst, b.Sensors)
}

func appendBinPolicySet(dst []byte, b *PolicySet) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return appendBinPolicies(dst, b.Policies)
}

// appendBinPolicies encodes a PolicySpec list — the shared body of
// PolicySet and PolicyDelta frames.
func appendBinPolicies(dst []byte, policies []PolicySpec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(policies)))
	for i := range policies {
		p := &policies[i]
		dst = appendBinString(dst, p.Name)
		dst = appendBinString(dst, p.Connective)
		dst = binary.AppendUvarint(dst, uint64(len(p.Conditions)))
		for _, c := range p.Conditions {
			dst = appendBinString(dst, c.Attribute)
			dst = appendBinString(dst, c.Sensor)
			dst = appendBinString(dst, c.Op)
			dst = appendBinF64(dst, c.Value)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Actions)))
		for _, a := range p.Actions {
			dst = appendBinString(dst, a.Target)
			dst = appendBinString(dst, a.Op)
			dst = appendBinStrings(dst, a.Args)
		}
	}
	return dst
}

func appendBinPolicyDelta(dst []byte, b *PolicyDelta) []byte {
	dst = binary.AppendUvarint(dst, b.Generation)
	dst = binary.AppendUvarint(dst, b.Prev)
	dst = appendBinString(dst, b.Executable)
	dst = appendBinString(dst, b.Scope)
	dst = appendBinStrings(dst, b.Hosts)
	dst = appendBinPolicies(dst, b.Policies)
	return appendBinString(dst, b.Reason)
}

func appendBinViolation(dst []byte, b *Violation) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Policy)
	dst = appendBinMap(dst, b.Readings)
	return appendBinBool(dst, b.Overshoot)
}

func appendBinQuery(dst []byte, b *Query) []byte {
	dst = appendBinString(dst, b.From)
	dst = appendBinStrings(dst, b.Keys)
	return appendBinString(dst, b.Ref)
}

func appendBinReport(dst []byte, b *Report) []byte {
	dst = appendBinString(dst, b.Host)
	dst = appendBinMap(dst, b.Values)
	return appendBinString(dst, b.Ref)
}

func appendBinAlarm(dst []byte, b *Alarm) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Policy)
	dst = appendBinMap(dst, b.Readings)
	return appendBinString(dst, b.Suspect)
}

func appendBinDirective(dst []byte, b *Directive) []byte {
	dst = appendBinString(dst, b.From)
	dst = appendBinString(dst, b.Action)
	dst = appendBinString(dst, b.Target)
	return appendBinF64(dst, b.Amount)
}

func appendBinAck(dst []byte, b *Ack) []byte {
	dst = appendBinString(dst, b.Ref)
	dst = appendBinBool(dst, b.OK)
	return appendBinString(dst, b.Err)
}

func appendBinNack(dst []byte, b *Nack) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	dst = appendBinString(dst, b.Ref)
	return appendBinString(dst, b.Reason)
}

func appendBinHeartbeat(dst []byte, b *Heartbeat) []byte {
	dst = appendBinIdentity(dst, &b.ID)
	return binary.AppendUvarint(dst, b.Seq)
}

func appendBinAlarmBatch(dst []byte, b *AlarmBatch) []byte {
	dst = appendBinString(dst, b.Tier)
	dst = binary.AppendUvarint(dst, uint64(len(b.Alarms)))
	for i := range b.Alarms {
		e := &b.Alarms[i]
		dst = appendBinAlarm(dst, &e.Alarm)
		dst = binary.AppendVarint(dst, int64(e.Count))
		dst = binary.AppendVarint(dst, int64(e.Severity))
	}
	return appendBinMap(dst, b.Summary)
}

func appendBinTelemetrySummary(dst []byte, b *TelemetrySummary) []byte {
	dst = appendBinString(dst, b.Tier)
	dst = appendBinString(dst, b.Source)
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = binary.AppendUvarint(dst, b.Hosts)
	dst = appendBinValues(dst, b.Counters)
	dst = appendBinValues(dst, b.Maxima)
	dst = binary.AppendUvarint(dst, uint64(len(b.Sketches)))
	for i := range b.Sketches {
		s := &b.Sketches[i]
		dst = appendBinString(dst, s.Name)
		dst = binary.AppendUvarint(dst, s.Sketch.Count)
		dst = appendBinF64(dst, s.Sketch.Sum)
		dst = appendBinF64(dst, s.Sketch.Min)
		dst = appendBinF64(dst, s.Sketch.Max)
		dst = binary.AppendUvarint(dst, s.Sketch.Zero)
		dst = binary.AppendVarint(dst, int64(s.Sketch.Base))
		dst = binary.AppendUvarint(dst, uint64(len(s.Sketch.Counts)))
		for _, c := range s.Sketch.Counts {
			dst = binary.AppendUvarint(dst, c)
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Size pass: each function below returns the byte count of its appendBin
// twin's output, field for field, without writing. FuzzUnmarshal,
// FuzzCodecRoundTrip and TestFrameSizeMatchesEncoding pin the two walks
// to the same length.

func payloadSize(m *Message, traced bool) int {
	n := 1 + sizeBinString(m.From) + 1 + 1 // kind, from, the empty to's length, trace flag
	if traced && m.Trace.Valid() {
		n += sizeBinString(m.Trace.TraceID) + sizeVarint(int64(m.Trace.Span))
	}
	switch b := m.Body.(type) {
	case Register:
		return n + sizeBinIdentity(&b.ID) + sizeBinStrings(b.Sensors)
	case PolicySet:
		return n + sizeBinIdentity(&b.ID) + sizeBinPolicies(b.Policies)
	case Violation:
		return n + sizeBinIdentity(&b.ID) + sizeBinString(b.Policy) + sizeBinMap(b.Readings) + 1
	case Query:
		return n + sizeBinString(b.From) + sizeBinStrings(b.Keys) + sizeBinString(b.Ref)
	case Report:
		return n + sizeBinString(b.Host) + sizeBinMap(b.Values) + sizeBinString(b.Ref)
	case Alarm:
		return n + sizeBinAlarm(&b)
	case Directive:
		return n + sizeBinString(b.From) + sizeBinString(b.Action) + sizeBinString(b.Target) + 8
	case Ack:
		return n + sizeBinString(b.Ref) + 1 + sizeBinString(b.Err)
	case Nack:
		return n + sizeBinIdentity(&b.ID) + sizeBinString(b.Ref) + sizeBinString(b.Reason)
	case Heartbeat:
		return n + sizeBinIdentity(&b.ID) + uvarintLen(b.Seq)
	case AlarmBatch:
		n += sizeBinString(b.Tier) + uvarintLen(uint64(len(b.Alarms))) + sizeBinMap(b.Summary)
		for i := range b.Alarms {
			e := &b.Alarms[i]
			n += sizeBinAlarm(&e.Alarm) + sizeVarint(int64(e.Count)) + sizeVarint(int64(e.Severity))
		}
		return n
	case TelemetrySummary:
		n += sizeBinString(b.Tier) + sizeBinString(b.Source) + uvarintLen(b.Seq) + uvarintLen(b.Hosts) +
			sizeBinValues(b.Counters) + sizeBinValues(b.Maxima) + uvarintLen(uint64(len(b.Sketches)))
		for i := range b.Sketches {
			s := &b.Sketches[i].Sketch
			n += sizeBinString(b.Sketches[i].Name) + uvarintLen(s.Count) + 3*8 + uvarintLen(s.Zero) +
				sizeVarint(int64(s.Base)) + uvarintLen(uint64(len(s.Counts)))
			for _, c := range s.Counts {
				n += uvarintLen(c)
			}
		}
		return n
	case PolicyDelta:
		return n + uvarintLen(b.Generation) + uvarintLen(b.Prev) + sizeBinString(b.Executable) +
			sizeBinString(b.Scope) + sizeBinStrings(b.Hosts) + sizeBinPolicies(b.Policies) + sizeBinString(b.Reason)
	}
	return 0
}

// sizeVarint is the length of binary.AppendVarint's zig-zag encoding.
func sizeVarint(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func sizeBinString(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sizeBinMap needs no sort: the length does not depend on key order.
func sizeBinMap(m map[string]float64) int {
	n := uvarintLen(uint64(len(m)))
	for k := range m {
		n += sizeBinString(k) + 8
	}
	return n
}

func sizeBinValues(vs []telemetry.NamedValue) int {
	n := uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += sizeBinString(v.Name) + 8
	}
	return n
}

func sizeBinStrings(ss []string) int {
	n := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		n += sizeBinString(s)
	}
	return n
}

func sizeBinIdentity(id *Identity) int {
	return sizeBinString(id.Host) + sizeVarint(int64(id.PID)) + sizeBinString(id.Executable) +
		sizeBinString(id.Application) + sizeBinString(id.UserRole)
}

func sizeBinPolicies(policies []PolicySpec) int {
	n := uvarintLen(uint64(len(policies)))
	for i := range policies {
		p := &policies[i]
		n += sizeBinString(p.Name) + sizeBinString(p.Connective) +
			uvarintLen(uint64(len(p.Conditions))) + uvarintLen(uint64(len(p.Actions)))
		for _, c := range p.Conditions {
			n += sizeBinString(c.Attribute) + sizeBinString(c.Sensor) + sizeBinString(c.Op) + 8
		}
		for _, a := range p.Actions {
			n += sizeBinString(a.Target) + sizeBinString(a.Op) + sizeBinStrings(a.Args)
		}
	}
	return n
}

func sizeBinAlarm(b *Alarm) int {
	return sizeBinIdentity(&b.ID) + sizeBinString(b.Policy) + sizeBinMap(b.Readings) + sizeBinString(b.Suspect)
}

// ---------------------------------------------------------------------------
// Binary decode

// UnmarshalWire decodes a buffer holding exactly one frame: header
// checks first, then the payload. Anything that does not open with the
// frame magic is ErrNotBinary. Every length is validated against the
// bytes actually present before any allocation sized from it.
func UnmarshalWire(data []byte) (to string, m Message, err error) {
	if len(data) == 0 || data[0] != binMagic {
		return "", Message{}, ErrNotBinary
	}
	if len(data) < 2 {
		return "", Message{}, ErrTruncated
	}
	if data[1] != binVersion {
		return "", Message{}, fmt.Errorf("%w: %d", ErrBadVersion, data[1])
	}
	n, used := binary.Uvarint(data[2:])
	if used <= 0 {
		return "", Message{}, ErrTruncated
	}
	if n > MaxFrameBytes {
		return "", Message{}, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	payload := data[2+used:]
	if uint64(len(payload)) < n {
		return "", Message{}, ErrTruncated
	}
	if uint64(len(payload)) > n {
		return "", Message{}, fmt.Errorf("%w: %d extra", ErrTrailingBytes, uint64(len(payload))-n)
	}
	return unmarshalBinaryPayload(payload, nil)
}

const (
	// internMaxEntries bounds one connection's intern table; internMaxLen
	// is the longest string it keeps. Together they cap what a peer can
	// make a node retain per connection at 64 KB of string bytes.
	internMaxEntries = 512
	internMaxLen     = 128
)

// internTable is one connection's memory of the strings that repeat on
// it — management addresses, identity fields, policy, attribute, key and
// action names — so decoding the thousandth frame of a connection
// allocates none of them again. It belongs to the connection's reader
// goroutine. Strings are immutable, so handing the same one to many
// messages aliases nothing a handler could change. The table is bounded:
// once full it stops learning and unknown strings are allocated per
// frame, each such miss counted in missed until the transport collects it.
type internTable struct {
	m      map[string]string
	missed uint64
}

func (t *internTable) get(b []byte) string {
	if s, ok := t.m[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	switch {
	case len(b) > internMaxLen:
	case len(t.m) >= internMaxEntries:
		t.missed++
	default:
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// binReader is a bounds-checked cursor over a binary payload. The first
// decode error sticks; every later read returns zero values, so decoders
// can run straight-line and check err once.
type binReader struct {
	buf []byte
	pos int
	err error
	tab *internTable // nil: every string is allocated
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// strBytes reads one length-prefixed string as a view of the payload.
func (r *binReader) strBytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// str reads a string that is unique to its message (a trace id, a
// correlation ref, free text): always a fresh copy.
func (r *binReader) str() string { return string(r.strBytes()) }

// name reads a string that repeats from frame to frame (an address, an
// identity field, a policy, attribute, key or action name): the
// connection's canonical copy when there is a table, a fresh one otherwise.
func (r *binReader) name() string {
	b := r.strBytes()
	if r.tab == nil || len(b) == 0 {
		return string(b)
	}
	return r.tab.get(b)
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

func (r *binReader) boolean() bool { return r.u8() != 0 }

// count reads the length of a repeated structure whose entries cost at
// least minBytes bytes each: a length the remaining bytes cannot hold is
// corrupt, not a big allocation. It returns 0 once decoding has failed.
func (r *binReader) count(minBytes int) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64((len(r.buf)-r.pos)/minBytes) {
		r.fail(ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *binReader) f64map() map[string]float64 {
	n := r.count(9) // >= 1 key length byte + 8 value bytes
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.name()
		m[k] = r.f64()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// values reads a name/value list in the order it was written; Validate
// rejects one that is not sorted by name or repeats a name.
func (r *binReader) values() []telemetry.NamedValue {
	n := r.count(9) // >= 1 name length byte + 8 value bytes
	if n == 0 {
		return nil
	}
	vs := make([]telemetry.NamedValue, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		vs = append(vs, telemetry.NamedValue{Name: r.name(), Value: r.f64()})
	}
	if r.err != nil {
		return nil
	}
	return vs
}

func (r *binReader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		ss = append(ss, r.name())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// policies decodes the PolicySpec list shared by PolicySet and
// PolicyDelta payloads, with the same per-entry minimum-byte-cost
// bounds checks as every other repeated structure.
func (r *binReader) policies() []PolicySpec {
	np := r.count(1)
	var policies []PolicySpec
	for i := uint64(0); i < np && r.err == nil; i++ {
		p := PolicySpec{Name: r.name(), Connective: r.name()}
		nc := r.count(11) // >= 3 len bytes + 8 value bytes
		for j := uint64(0); j < nc && r.err == nil; j++ {
			p.Conditions = append(p.Conditions, CondSpec{
				Attribute: r.name(), Sensor: r.name(), Op: r.name(), Value: r.f64()})
		}
		na := r.count(3) // >= 3 len bytes
		for j := uint64(0); j < na && r.err == nil; j++ {
			p.Actions = append(p.Actions, ActionSpec{
				Target: r.name(), Op: r.name(), Args: r.strs()})
		}
		policies = append(policies, p)
	}
	if r.err != nil {
		return nil
	}
	return policies
}

func (r *binReader) identity() Identity {
	return Identity{
		Host:        r.name(),
		PID:         int(r.varint()),
		Executable:  r.name(),
		Application: r.name(),
		UserRole:    r.name(),
	}
}

// unmarshalBinaryPayload decodes one frame's payload. With a table
// (a connection's) the strings that repeat from frame to frame come out
// of it; with nil every string is a fresh copy. Either way the message
// shares no memory with payload.
func unmarshalBinaryPayload(payload []byte, tab *internTable) (string, Message, error) {
	r := &binReader{buf: payload, tab: tab}
	kind := r.u8()
	from := r.name()
	to := r.name()
	var tc telemetry.TraceContext
	if r.boolean() {
		tc.TraceID = r.str()
		tc.Span = int(r.varint())
	}
	var body any
	switch kind {
	case kindRegister:
		body = Register{ID: r.identity(), Sensors: r.strs()}
	case kindPolicySet:
		body = PolicySet{ID: r.identity(), Policies: r.policies()}
	case kindPolicyDelta:
		body = PolicyDelta{Generation: r.uvarint(), Prev: r.uvarint(),
			Executable: r.name(), Scope: r.name(), Hosts: r.strs(),
			Policies: r.policies(), Reason: r.str()}
	case kindViolation:
		body = Violation{ID: r.identity(), Policy: r.name(), Readings: r.f64map(), Overshoot: r.boolean()}
	case kindQuery:
		body = Query{From: r.name(), Keys: r.strs(), Ref: r.str()}
	case kindReport:
		body = Report{Host: r.name(), Values: r.f64map(), Ref: r.str()}
	case kindAlarm:
		body = Alarm{ID: r.identity(), Policy: r.name(), Readings: r.f64map(), Suspect: r.name()}
	case kindDirective:
		body = Directive{From: r.name(), Action: r.name(), Target: r.name(), Amount: r.f64()}
	case kindAck:
		body = Ack{Ref: r.str(), OK: r.boolean(), Err: r.str()}
	case kindNack:
		body = Nack{ID: r.identity(), Ref: r.str(), Reason: r.str()}
	case kindHeartbeat:
		body = Heartbeat{ID: r.identity(), Seq: r.uvarint()}
	case kindAlarmBatch:
		ab := AlarmBatch{Tier: r.name()}
		// Each entry costs at least an identity (5 string lengths + pid),
		// policy + readings + suspect lengths, and two varints: 11 bytes.
		na := r.count(11)
		for i := uint64(0); i < na && r.err == nil; i++ {
			ab.Alarms = append(ab.Alarms, BatchedAlarm{
				Alarm: Alarm{ID: r.identity(), Policy: r.name(),
					Readings: r.f64map(), Suspect: r.name()},
				Count:    int(r.varint()),
				Severity: int(r.varint()),
			})
		}
		ab.Summary = r.f64map()
		body = ab
	case kindTelemetrySummary:
		ts := TelemetrySummary{Tier: r.name(), Source: r.name(),
			Seq: r.uvarint(), Hosts: r.uvarint(),
			Counters: r.values(), Maxima: r.values()}
		// Each sketch costs at least a name length, a count, three f64s
		// (sum/min/max), zero, base and a bucket count: 29 bytes.
		ns := r.count(29)
		for i := uint64(0); i < ns && r.err == nil; i++ {
			s := telemetry.NamedSketchSnapshot{Name: r.name()}
			s.Sketch.Count = r.uvarint()
			s.Sketch.Sum = r.f64()
			s.Sketch.Min = r.f64()
			s.Sketch.Max = r.f64()
			s.Sketch.Zero = r.uvarint()
			s.Sketch.Base = int(r.varint())
			if nc := r.count(1); nc > 0 { // each bucket costs >= 1 byte
				s.Sketch.Counts = make([]uint64, 0, nc)
				for j := uint64(0); j < nc && r.err == nil; j++ {
					s.Sketch.Counts = append(s.Sketch.Counts, r.uvarint())
				}
			}
			ts.Sketches = append(ts.Sketches, s)
		}
		body = ts
	default:
		if r.err == nil {
			r.fail(fmt.Errorf("%w: %d", ErrBadKind, kind))
		}
	}
	if r.err != nil {
		return "", Message{}, r.err
	}
	if r.pos != len(r.buf) {
		return "", Message{}, fmt.Errorf("%w: %d extra payload bytes", ErrTrailingBytes, len(r.buf)-r.pos)
	}
	return to, Message{From: from, Trace: tc, Body: body}, nil
}
