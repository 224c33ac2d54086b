package eventlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"softqos/internal/telemetry"
)

func testClock() (telemetry.Clock, *time.Duration) {
	now := new(time.Duration)
	return func() time.Duration { return *now }, now
}

func TestNilLoggerIsInert(t *testing.T) {
	var lg *Logger
	lg.Event(Error, "c", "code", Str("k", "v"))
	lg.EventCtx(telemetry.TraceContext{TraceID: "t"}, Warn, "c", "code")
	lg.SetMetrics(nil)
	if got := lg.WithSink(func(Level, string, string) {}); got != nil {
		t.Fatalf("WithSink on nil logger = %v, want nil", got)
	}
	if lg.Records(Query{}) != nil || lg.Len() != 0 || lg.Evicted() != 0 || lg.Seq() != 0 {
		t.Fatal("nil logger should report empty state")
	}
	var b bytes.Buffer
	if err := lg.WriteNDJSON(&b, Query{}); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteNDJSON = %v, %q", err, b.String())
	}
}

func TestRingWrapEvictsOldestInOrder(t *testing.T) {
	clock, now := testClock()
	lg := New(clock, 4)
	for i := 0; i < 7; i++ {
		*now = time.Duration(i) * time.Second
		lg.Event(Info, "c", "tick", Int("i", i))
	}
	if lg.Evicted() != 3 {
		t.Fatalf("Evicted = %d, want 3", lg.Evicted())
	}
	recs := lg.Records(Query{})
	if len(recs) != 4 {
		t.Fatalf("len(Records) = %d, want 4", len(recs))
	}
	// Oldest-first order, with the oldest three gone: seqs 4..7.
	for i, r := range recs {
		wantSeq := uint64(4 + i)
		if r.Seq != wantSeq {
			t.Errorf("record %d: Seq = %d, want %d", i, r.Seq, wantSeq)
		}
		if r.At != time.Duration(3+i)*time.Second {
			t.Errorf("record %d: At = %v, want %v", i, r.At, time.Duration(3+i)*time.Second)
		}
	}
}

func counterValue(reg *telemetry.Registry, name string) (uint64, bool) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// The ring's self-accounting counter exists, at zero, from SetMetrics
// on — not from the first eviction.
func TestEvictionCounterRegisteredAtSetMetrics(t *testing.T) {
	reg := telemetry.NewRegistry(nil)
	lg := New(nil, 2)
	lg.SetMetrics(reg)
	lg.Event(Info, "c", "a")
	lg.Event(Info, "c", "b")
	if got, ok := counterValue(reg, "telemetry.log.evicted"); !ok || got != 0 {
		t.Fatalf("telemetry.log.evicted = (%d, %v) before any eviction, want registered at 0", got, ok)
	}
	lg.Event(Info, "c", "c")
	if got, _ := counterValue(reg, "telemetry.log.evicted"); got != 1 {
		t.Fatalf("telemetry.log.evicted = %d, want 1", got)
	}
}

func TestQueryFilters(t *testing.T) {
	clock, now := testClock()
	lg := New(clock, 64)
	*now = 1 * time.Second
	lg.Event(Debug, "alpha", "a")
	*now = 2 * time.Second
	lg.Event(Warn, "beta", "b")
	*now = 3 * time.Second
	lg.Event(Error, "alpha", "c")

	if got := len(lg.Records(Query{MinLevel: Warn})); got != 2 {
		t.Errorf("MinLevel=warn matched %d, want 2", got)
	}
	if got := len(lg.Records(Query{Component: "alpha"})); got != 2 {
		t.Errorf("Component=alpha matched %d, want 2", got)
	}
	if got := len(lg.Records(Query{Since: 2 * time.Second})); got != 2 {
		t.Errorf("Since=2s matched %d, want 2", got)
	}
	got := lg.Records(Query{Limit: 1})
	if len(got) != 1 || got[0].Code != "c" {
		t.Errorf("Limit=1 = %+v, want the most recent record", got)
	}
}

func TestTraceContextCarried(t *testing.T) {
	lg := New(nil, 8)
	lg.EventCtx(telemetry.TraceContext{TraceID: "cli#3", Span: 5}, Warn, "manager", "evicted")
	r := lg.Records(Query{})[0]
	if r.Trace != "cli#3" || r.Span != 5 {
		t.Fatalf("trace = %q span = %d, want cli#3 / 5", r.Trace, r.Span)
	}
}

func TestRecordJSONShape(t *testing.T) {
	clock, now := testClock()
	lg := New(clock, 8)
	*now = 1500 * time.Millisecond
	lg.EventCtx(telemetry.TraceContext{TraceID: "t#1", Span: 2}, Error, "agent", "refresh_failure",
		Str("executable", "video"), Int("generation", 7), Num("ratio", 0.5))
	r := lg.Records(Query{})[0]
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"at_ns":1500000000,"level":"error","component":"agent","code":"refresh_failure",` +
		`"trace":"t#1","span":2,"fields":{"executable":"video","generation":7,"ratio":0.5}}`
	if string(b) != want {
		t.Fatalf("JSON = %s\nwant   %s", b, want)
	}
	// Round-trips as standard JSON.
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("record JSON does not parse: %v", err)
	}
}

func TestWriteNDJSON(t *testing.T) {
	lg := New(nil, 8)
	lg.Event(Info, "a", "one")
	lg.Event(Warn, "b", "two")
	var buf bytes.Buffer
	if err := lg.WriteNDJSON(&buf, Query{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
}

func TestWithSinkSharesRingAndRoutesCounters(t *testing.T) {
	lg := New(nil, 16)
	sumA, sumB := telemetry.NewSummary(), telemetry.NewSummary()
	a := lg.WithSink(SummarySink(sumA))
	b := lg.WithSink(SummarySink(sumB))
	a.Event(Warn, "manager", "evicted")
	b.Event(Error, "agent", "gap")
	b.Event(Error, "agent", "gap")
	if lg.Len() != 3 {
		t.Fatalf("shared ring holds %d records, want 3", lg.Len())
	}
	ca, _, _ := sumA.Export()
	cb, _, _ := sumB.Export()
	if len(ca) != 1 || ca[0] != (telemetry.NamedValue{Name: "log.manager.warn", Value: 1}) {
		t.Errorf("sink A counters = %v, want log.manager.warn=1", ca)
	}
	if len(cb) != 1 || cb[0] != (telemetry.NamedValue{Name: "log.agent.error", Value: 2}) {
		t.Errorf("sink B counters = %v, want log.agent.error=2", cb)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	lg := New(nil, 128)
	lg.SetMetrics(telemetry.NewRegistry(nil))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view := lg.WithSink(SummarySink(telemetry.NewSummary()))
			for i := 0; i < 500; i++ {
				view.Event(Level(i%4), "worker", "op", Int("g", g), Int("i", i))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			lg.Records(Query{MinLevel: Warn, Limit: 10})
			var buf bytes.Buffer
			_ = lg.WriteNDJSON(&buf, Query{Limit: 5})
		}
	}()
	wg.Wait()
	if lg.Len() != 128 {
		t.Fatalf("ring holds %d, want full 128", lg.Len())
	}
}

func TestCounterName(t *testing.T) {
	if got := CounterName(Error, "domainmanager"); got != "log.domainmanager.error" {
		t.Fatalf("CounterName = %q", got)
	}
}

func TestParseLevel(t *testing.T) {
	for want, name := range map[Level]string{Debug: "debug", Info: "info", Warn: "warn", Error: "error"} {
		got, ok := ParseLevel(name)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseLevel("fatal"); ok {
		t.Error("ParseLevel(fatal) accepted")
	}
}
