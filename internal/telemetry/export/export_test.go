package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"softqos/internal/telemetry"
)

func sampleTelemetry() (*telemetry.Registry, *telemetry.Tracer) {
	reg := telemetry.NewRegistry(nil)
	reg.Counter("msg.bus.sent").Add(12)
	reg.Counter("msg.bus.dropped_invalid").Inc()
	reg.Gauge("host.h1.cpu_load").Set(1.75)
	h := reg.Sketch("coordinator.eval_ns")
	for _, v := range []float64{100, 200, 300} {
		h.Observe(v)
	}

	tr := telemetry.NewTracer(nil)
	ctx := tr.Begin("/h1/app/exe/7", "FrameRate", "coordinator", "frame_rate<24")
	diag := tr.EventCtx(ctx, "/h1/app/exe/7", "FrameRate", "hostmanager", telemetry.StageDiagnose, "episode")
	tr.Explain(diag, "/h1/app/exe/7", "FrameRate", telemetry.Explanation{
		Engine:   "/h1/QoSManager",
		Rule:     "boost-on-starvation",
		Matched:  []string{"(violation p7)"},
		Asserted: []string{"(action boost)"},
		Called:   []string{"boost-cpu p7 10"},
	})
	tr.EventCtx(diag, "/h1/app/exe/7", "FrameRate", "cpu-manager", telemetry.StageAdapt, "boost +10")
	tr.Resolve("/h1/app/exe/7", "FrameRate")
	return reg, tr
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value — no leading whitespace, numeric value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func checkPromText(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	samples := 0
	for _, ln := range lines {
		if strings.HasPrefix(ln, "#") {
			if !strings.HasPrefix(ln, "# TYPE ") {
				t.Errorf("unexpected comment line %q", ln)
			}
			continue
		}
		if !promLine.MatchString(ln) {
			t.Errorf("line is not valid Prometheus text format: %q", ln)
			continue
		}
		value := ln[strings.LastIndexByte(ln, ' ')+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("sample value %q is not numeric in %q", value, ln)
		}
		samples++
	}
	if samples == 0 {
		t.Error("exposition has no sample lines")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg, _ := sampleTelemetry()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkPromText(t, out)
	for _, want := range []string{
		"# TYPE softqos_msg_bus_sent counter",
		"softqos_msg_bus_sent 12",
		"softqos_msg_bus_dropped_invalid 1",
		"# TYPE softqos_host_h1_cpu_load gauge",
		"softqos_host_h1_cpu_load 1.75",
		"# TYPE softqos_coordinator_eval_ns summary",
		"softqos_coordinator_eval_ns_sum 600",
		"softqos_coordinator_eval_ns_count 3",
		"softqos_coordinator_eval_ns_max 300",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Quantiles are the sketch's: within its relative error of the
	// exact median, 200.
	const p50 = `softqos_coordinator_eval_ns{quantile="0.5"} `
	_, rest, ok := strings.Cut(out, p50)
	line, _, _ := strings.Cut(rest, "\n")
	if v, err := strconv.ParseFloat(line, 64); !ok || err != nil || math.Abs(v-200) > 200*telemetry.SketchRelativeError {
		t.Errorf("p50 sample %q (found %v, err %v), want 200 within %.2f%%", line, ok, err, 100*telemetry.SketchRelativeError)
	}
}

func TestWriteJSONPayload(t *testing.T) {
	reg, tr := sampleTelemetry()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, BuildPayload(reg, tr)); err != nil {
		t.Fatal(err)
	}
	var p Payload
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatalf("payload does not round-trip: %v", err)
	}
	if p.Metrics == nil || len(p.Metrics.Counters) == 0 {
		t.Error("payload missing metrics snapshot")
	}
	if p.Completed != 1 || len(p.Traces) != 1 {
		t.Fatalf("completed=%d traces=%d, want 1/1", p.Completed, len(p.Traces))
	}
	tr0 := p.Traces[0]
	if len(tr0.Spans) != 4 { // violation, diagnose, adapt, recovered
		t.Errorf("spans = %d, want 4", len(tr0.Spans))
	}
	if len(tr0.Explanations) != 1 || tr0.Explanations[0].Rule != "boost-on-starvation" {
		t.Errorf("explanations = %+v", tr0.Explanations)
	}

	// Nil registry and tracer still produce a valid document.
	buf.Reset()
	if err := WriteJSON(&buf, BuildPayload(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatalf("empty payload invalid: %v", err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	_, tr := sampleTelemetry()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Traces()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event phase = %v, want X", ev["ph"])
		}
		if dur, ok := ev["dur"].(float64); !ok || dur < 1 {
			t.Errorf("event dur = %v, want >= 1", ev["dur"])
		}
	}
	// The diagnosis span carries its rule firings.
	found := false
	for _, ev := range f.TraceEvents {
		args, _ := ev["args"].(map[string]any)
		if args == nil {
			continue
		}
		if rules, ok := args["rules_fired"].([]any); ok && len(rules) == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no event carries rules_fired args")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg, tr := sampleTelemetry()
	srv, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	checkPromText(t, metrics)

	debug, ctype := get("/debug/qos")
	if ctype != "application/json" {
		t.Errorf("/debug/qos content type = %q", ctype)
	}
	var p Payload
	if err := json.Unmarshal([]byte(debug), &p); err != nil {
		t.Fatalf("/debug/qos not JSON: %v", err)
	}
	if len(p.Traces) != 1 {
		t.Errorf("/debug/qos traces = %d, want 1", len(p.Traces))
	}

	chrome, _ := get("/debug/qos/chrome")
	var cf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &cf); err != nil {
		t.Fatalf("/debug/qos/chrome not JSON: %v", err)
	}
	if len(cf.TraceEvents) == 0 {
		t.Error("/debug/qos/chrome has no events")
	}
}

func TestDumpFiles(t *testing.T) {
	reg, tr := sampleTelemetry()
	dir := filepath.Join(t.TempDir(), "exportdir")
	if err := DumpFiles(dir, reg, tr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.prom", "qos.json", "trace.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	b, _ := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	checkPromText(t, string(b))
}
