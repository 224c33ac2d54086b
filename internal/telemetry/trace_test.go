package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) fn() Clock { return func() time.Duration { return c.now } }

func TestTraceLifecycle(t *testing.T) {
	clk := &fakeClock{now: 10 * time.Second}
	tr := NewTracer(clk.fn())

	tr.Begin("/h/app/exe/101", "P", "coordinator", "frame_rate=14")
	clk.now = 11 * time.Second
	tr.Event("/h/app/exe/101", "P", StageNotify, "")
	tr.Event("/h/app/exe/101", "P", StageAdapt, "boost-cpu +10")
	clk.now = 12 * time.Second
	tr.Resolve("/h/app/exe/101", "P")

	traces := tr.Traces()
	if len(traces) != 1 || tr.Completed() != 1 || tr.Open() != 0 {
		t.Fatalf("traces=%d completed=%d open=%d", len(traces), tr.Completed(), tr.Open())
	}
	got := traces[0]
	if ttr, ok := got.TimeToRecovery(); !ok || ttr != 2*time.Second {
		t.Errorf("TTR = (%v, %v), want 2s", ttr, ok)
	}
	stages := make([]string, len(got.Spans))
	for i, sp := range got.Spans {
		stages[i] = sp.Stage
	}
	want := []string{StageViolation, StageNotify, StageAdapt, StageRecovered}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Errorf("stages = %v, want %v", stages, want)
	}
}

func TestTraceReviolationJoinsOpenTrace(t *testing.T) {
	tr := NewTracer(nil)
	tr.Begin("s", "P", "coordinator", "first")
	tr.Begin("s", "P", "coordinator", "second") // paced re-report, same episode
	if tr.Open() != 1 {
		t.Fatalf("open = %d, want 1", tr.Open())
	}
	tr.Resolve("s", "P")
	traces := tr.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 3 {
		t.Fatalf("spans = %d, want 3 (violation, violation, recovered)", len(traces[0].Spans))
	}
}

func TestTraceNeverRecoversStillExports(t *testing.T) {
	clk := &fakeClock{now: 5 * time.Second}
	tr := NewTracer(clk.fn())
	tr.Begin("/h/app/exe/200", "Q", "coordinator", "stuck")
	clk.now = 6 * time.Second
	tr.Event("/h/app/exe/200", "Q", StageEscalate, "")

	traces := tr.Traces()
	if len(traces) != 1 || traces[0].Recovered {
		t.Fatalf("open trace not exported: %+v", traces)
	}
	if _, ok := traces[0].TimeToRecovery(); ok {
		t.Error("open trace reported a time-to-recovery")
	}

	var buf bytes.Buffer
	if err := WriteTraceTable(&buf, traces); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ttr=open") || !strings.Contains(out, "0 recovered, 1 open") {
		t.Errorf("trace table missing open marker:\n%s", out)
	}
	if !strings.Contains(out, StageEscalate) {
		t.Errorf("trace table missing span stage:\n%s", out)
	}
}

func TestTraceEventWithoutOpenTraceIsNoop(t *testing.T) {
	tr := NewTracer(nil)
	tr.Event("s", "P", StageAdapt, "stray")
	tr.Resolve("s", "P")
	if len(tr.Traces()) != 0 {
		t.Error("stray event/resolve created a trace")
	}
}

func TestTracerOpenOrderDeterministic(t *testing.T) {
	tr := NewTracer(nil)
	tr.Begin("b", "P", "", "")
	tr.Begin("a", "Z", "", "")
	tr.Begin("a", "A", "", "")
	got := tr.Traces()
	if len(got) != 3 || got[0].Subject != "a" || got[0].Policy != "A" ||
		got[1].Policy != "Z" || got[2].Subject != "b" {
		t.Errorf("open order = %v", got)
	}
}

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry(nil)
		r.Counter("z.count").Add(3)
		r.Counter("a.count").Inc()
		r.Gauge("m.gauge").Set(1.5)
		r.GaugeFunc("f.gauge", func() float64 { return 2.25 })
		h := r.Sketch("h.hist")
		for _, v := range []float64{5, 1, 3} {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	if strings.Index(out, "a.count") > strings.Index(out, "z.count") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, "count=3 min=1 mean=3 p50=") || !strings.Contains(out, " max=5") {
		t.Errorf("histogram line missing exact aggregates or quantiles:\n%s", out)
	}
	if h := build().Histograms[0]; math.Abs(h.P50-3) > 3*SketchRelativeError {
		t.Errorf("p50 = %v, want 3 within %.2f%%", h.P50, 100*SketchRelativeError)
	}

	var csv bytes.Buffer
	if err := build().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "counter,a.count,value,1") {
		t.Errorf("csv missing counter row:\n%s", csv.String())
	}
}

func TestTraceContextPropagation(t *testing.T) {
	tr := NewTracer(nil)
	ctx := tr.Begin("s", "P", "coordinator", "v<10")
	if !ctx.Valid() || ctx.Span != 1 {
		t.Fatalf("Begin context = %+v, want valid span 1", ctx)
	}
	notify := tr.EventCtx(ctx, "s", "P", "coordinator", StageNotify, "report")
	diag := tr.EventCtx(notify, "s", "P", "hostmanager", StageDiagnose, "episode")
	adapt := tr.EventCtx(diag, "s", "P", "cpu-manager", StageAdapt, "boost +10")
	tr.Resolve("s", "P")

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.ID != "s#1" {
		t.Errorf("trace ID = %q, want s#1", got.ID)
	}
	type link struct {
		id, parent int
		src        string
	}
	want := []link{
		{1, 0, "coordinator"},
		{2, 1, "coordinator"},
		{3, 2, "hostmanager"},
		{4, 3, "cpu-manager"},
		{5, 1, ""}, // recovered closes under the opening violation
	}
	if len(got.Spans) != len(want) {
		t.Fatalf("spans = %d, want %d", len(got.Spans), len(want))
	}
	for i, w := range want {
		sp := got.Spans[i]
		if sp.ID != w.id || sp.Parent != w.parent || sp.Src != w.src {
			t.Errorf("span %d = {ID:%d Parent:%d Src:%q}, want %+v", i, sp.ID, sp.Parent, sp.Src, w)
		}
	}
	if adapt.TraceID != got.ID || adapt.Span != 4 {
		t.Errorf("adapt context = %+v", adapt)
	}
}

func TestTraceEventCtxRemoteShellTrace(t *testing.T) {
	// A context minted by another process's tracer: spans must land on a
	// shell trace under the propagated ID, not a freshly numbered one.
	tr := NewTracer(nil)
	remote := TraceContext{TraceID: "client#7", Span: 3}
	ctx := tr.EventCtx(remote, "client", "P", "domainmanager", StageLocate, "server fault")
	if ctx.TraceID != "client#7" || ctx.Span != 1 {
		t.Fatalf("shell context = %+v, want client#7 span 1", ctx)
	}
	traces := tr.Traces()
	if len(traces) != 1 || traces[0].ID != "client#7" {
		t.Fatalf("traces = %+v", traces)
	}
	// Parent refers to a span of the remote process; kept as-is? No — the
	// local shell never saw span 3, so the link is cross-process: Parent
	// carries the propagated span ID.
	if sp := traces[0].Spans[0]; sp.Parent != 3 || sp.Src != "domainmanager" {
		t.Errorf("shell span = %+v", sp)
	}
}

func TestTraceContextLatestSpan(t *testing.T) {
	tr := NewTracer(nil)
	if ctx := tr.Context("s", "P"); ctx.Valid() {
		t.Fatalf("context for closed trace = %+v", ctx)
	}
	tr.Begin("s", "P", "coordinator", "")
	tr.Event("s", "P", StageNotify, "")
	ctx := tr.Context("s", "P")
	if ctx.TraceID != "s#1" || ctx.Span != 2 {
		t.Errorf("context = %+v, want s#1 span 2", ctx)
	}
}

func TestTraceExplainAttachesToTrace(t *testing.T) {
	clk := &fakeClock{now: 3 * time.Second}
	tr := NewTracer(clk.fn())
	ctx := tr.Begin("s", "P", "coordinator", "")
	diag := tr.EventCtx(ctx, "s", "P", "hostmanager", StageDiagnose, "")
	tr.Explain(diag, "s", "P", Explanation{
		Engine:   "/h/QoSManager",
		Rule:     "frame-rate-low",
		Matched:  []string{"(violation p1)"},
		Asserted: []string{"(action boost)"},
	})
	// Explanations without a usable context are dropped, not misfiled.
	tr.Explain(TraceContext{}, "other", "Q", Explanation{Rule: "stray"})
	tr.Resolve("s", "P")

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	ex := traces[0].Explanations
	if len(ex) != 1 {
		t.Fatalf("explanations = %d, want 1", len(ex))
	}
	if ex[0].Rule != "frame-rate-low" || ex[0].Span != diag.Span || ex[0].At != 3*time.Second {
		t.Errorf("explanation = %+v", ex[0])
	}
}

// TestTracerShellTracesCloseOnNextEpisode: a tracer that is not the
// coordinator's sees every episode of a subject under a new propagated
// trace ID and never sees it end. Each shell must hold exactly its own
// episode and be closed, into the bounded ring, by the next one — before
// this, the first shell per subject swallowed every later episode's spans
// with Parent 0, forever.
func TestTracerShellTracesCloseOnNextEpisode(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.fn())
	reg := NewRegistry(nil)
	tr.SetMetrics(reg)
	const subjects, episodes = 16, 10000
	for ep := 0; ep < episodes; ep++ {
		clk.now += time.Millisecond
		subject := "/h/app/exe/" + strconv.Itoa(ep%subjects)
		remote := TraceContext{TraceID: subject + "#" + strconv.Itoa(ep), Span: 2}
		diag := tr.EventCtx(remote, subject, "P", "hostmanager", StageDiagnose, "episode")
		tr.Explain(diag, subject, "P", Explanation{Rule: "r"})
		tr.EventCtx(diag, subject, "P", "cpu-manager", StageAdapt, "boost")
	}
	if open := tr.Open(); open > subjects {
		t.Errorf("%d shells open, want at most %d", open, subjects)
	}
	all := tr.Traces()
	if done := len(all) - tr.Open(); done > DefaultMaxTraces {
		t.Errorf("%d completed traces retained, cap %d", done, DefaultMaxTraces)
	}
	if want := uint64(episodes - subjects - DefaultMaxTraces); tr.Evicted() != want ||
		reg.Counter("telemetry.traces.evicted").Value() != want {
		t.Errorf("evicted %d, want %d", tr.Evicted(), want)
	}
	for _, tc := range all {
		closed := tc.End != 0
		wantSpans := 2
		if closed {
			wantSpans = 3
		}
		if !tc.Remote || tc.Recovered || tc.Abandoned || len(tc.Spans) != wantSpans || len(tc.Explanations) != 1 {
			t.Fatalf("shell %s: %+v", tc.ID, tc)
		}
		if d, a := tc.Spans[0], tc.Spans[1]; d.Stage != StageDiagnose || d.Parent != 2 || a.Stage != StageAdapt || a.Parent != d.ID {
			t.Fatalf("shell %s holds another episode's spans: %+v", tc.ID, tc.Spans)
		}
		if closed && tc.Spans[2].Stage != StageSuperseded {
			t.Fatalf("shell %s closed by %+v", tc.ID, tc.Spans[2])
		}
	}
	// A trace opened by Begin is never displaced by a foreign context.
	own := tr.Begin("/h/app/exe/own", "P", "coordinator", "")
	tr.EventCtx(TraceContext{TraceID: "elsewhere#1", Span: 1}, "/h/app/exe/own", "P", "hostmanager", StageDiagnose, "")
	if got := tr.Context("/h/app/exe/own", "P"); got.TraceID != own.TraceID || got.Span != 2 {
		t.Errorf("Begin-opened trace displaced: %+v", got)
	}
}
