package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softqos/internal/telemetry"
)

// testClock is a goroutine-safe settable virtual clock for tests that
// scrape while time advances.
type testClock struct{ v atomic.Int64 }

func (c *testClock) now() time.Duration  { return time.Duration(c.v.Load()) }
func (c *testClock) set(d time.Duration) { c.v.Store(int64(d)) }
func (c *testClock) add(d time.Duration) { c.v.Add(int64(d)) }

// sloTelemetry builds a registry+tracer pair on a controllable virtual
// clock, with one recovered and one open violation episode.
func sloTelemetry() (*telemetry.Registry, *telemetry.Tracer, *testClock) {
	clk := new(testClock)
	reg := telemetry.NewRegistry(clk.now)
	reg.Gauge("host.h1.cpu_load").Set(0.8)
	tr := telemetry.NewTracer(reg.Clock())

	clk.set(2 * time.Second)
	ctx := tr.Begin("/h1/app/exe/7", "FrameRate", "coordinator", "frame_rate<24")
	clk.set(2*time.Second + 20*time.Millisecond)
	ctx = tr.EventCtx(ctx, "/h1/app/exe/7", "FrameRate", "coordinator", telemetry.StageNotify, "report")
	clk.set(2*time.Second + 50*time.Millisecond)
	ctx = tr.EventCtx(ctx, "/h1/app/exe/7", "FrameRate", "hostmanager", telemetry.StageDiagnose, "episode")
	clk.set(2*time.Second + 90*time.Millisecond)
	tr.EventCtx(ctx, "/h1/app/exe/7", "FrameRate", "cpu-manager", telemetry.StageAdapt, "boost")
	clk.set(4 * time.Second)
	tr.Resolve("/h1/app/exe/7", "FrameRate")

	clk.set(8 * time.Second)
	tr.Begin("/h1/app/exe/9", "FrameRate", "coordinator", "frame_rate<24")
	clk.set(10 * time.Second)
	return reg, tr, clk
}

func TestBuildSLOPayload(t *testing.T) {
	reg, tr, _ := sloTelemetry()
	p := BuildSLO(reg, tr, []telemetry.SLOTarget{{
		Policy: "FrameRate", Objective: "frame_rate in 23..27", Target: 0.9,
		FastWindow: 4 * time.Second, SlowWindow: 10 * time.Second,
	}})
	if p.At != 10*time.Second {
		t.Errorf("at = %v, want 10s", p.At)
	}
	if len(p.SLOs) != 1 {
		t.Fatalf("slos = %d, want 1", len(p.SLOs))
	}
	s := p.SLOs[0]
	// Violated [2,4] and [8,10] of 10s → 0.6 overall compliance; the
	// fast window [6,10] is half violated.
	if s.Compliance != 0.6 || s.FastCompliance != 0.5 {
		t.Errorf("compliance = %v fast = %v, want 0.6 / 0.5", s.Compliance, s.FastCompliance)
	}
	if s.Objective != "frame_rate in 23..27" {
		t.Errorf("objective = %q", s.Objective)
	}
	if p.Loop.Detect.Count != 1 || p.Loop.Adapt.Count != 1 {
		t.Errorf("loop stats = %+v, want one completed episode", p.Loop)
	}
	if len(p.OpenEpisodes) != 1 || p.OpenEpisodes[0].Subject != "/h1/app/exe/9" {
		t.Fatalf("open episodes = %+v", p.OpenEpisodes)
	}
	if p.OpenEpisodes[0].Age != 2*time.Second {
		t.Errorf("open age = %v, want 2s", p.OpenEpisodes[0].Age)
	}

	// Nil inputs produce a valid, empty payload that still lists the
	// declared targets.
	empty := BuildSLO(nil, nil, []telemetry.SLOTarget{{Policy: "Quiet"}})
	if len(empty.SLOs) != 1 || empty.SLOs[0].Compliance != 1 {
		t.Errorf("nil-input payload = %+v", empty.SLOs)
	}
	var buf bytes.Buffer
	if err := WriteSLOJSON(&buf, empty); err != nil {
		t.Fatal(err)
	}
	var rt SLOPayload
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatalf("payload does not round-trip: %v", err)
	}
}

func TestHandlerNewEndpoints(t *testing.T) {
	reg, tr, _ := sloTelemetry()
	tl := telemetry.NewTimeline(reg)
	tl.Sample()
	h := Handler(reg, tr,
		WithTimeline(tl),
		WithSLOTargets([]telemetry.SLOTarget{{Policy: "FrameRate", Objective: "frame_rate in 23..27"}}),
	)

	get := func(path string) (*httptest.ResponseRecorder, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec, rec.Header().Get("Content-Type")
	}

	rec, ctype := get("/debug/qos/timeline")
	if ctype != "application/json" {
		t.Errorf("/debug/qos/timeline content type = %q", ctype)
	}
	var dump telemetry.TimelineDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("timeline not JSON: %v", err)
	}
	if dump.Samples != 1 || len(dump.Series) == 0 {
		t.Errorf("timeline dump = %+v", dump)
	}

	rec, ctype = get("/debug/qos/slo")
	if ctype != "application/json" {
		t.Errorf("/debug/qos/slo content type = %q", ctype)
	}
	var p SLOPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("slo not JSON: %v", err)
	}
	if len(p.SLOs) != 1 || p.SLOs[0].Policy != "FrameRate" {
		t.Errorf("slo payload = %+v", p.SLOs)
	}

	rec, ctype = get("/debug/qos/dashboard")
	if !strings.HasPrefix(ctype, "text/html") {
		t.Errorf("/debug/qos/dashboard content type = %q", ctype)
	}
	html := rec.Body.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "FrameRate", "<svg", "Open episodes", "/h1/app/exe/9",
		"detect", "Flight recorder",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(html, "<script") {
		t.Error("dashboard must be JavaScript-free")
	}

	// Unknown paths 404.
	rec404 := httptest.NewRecorder()
	h.ServeHTTP(rec404, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec404.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", rec404.Code)
	}

	// pprof is absent unless opted in, present with WithPprof.
	recP := httptest.NewRecorder()
	h.ServeHTTP(recP, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if recP.Code != http.StatusNotFound {
		t.Errorf("pprof without WithPprof: status %d, want 404", recP.Code)
	}
	hp := Handler(reg, tr, WithPprof())
	recP = httptest.NewRecorder()
	hp.ServeHTTP(recP, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if recP.Code != http.StatusOK {
		t.Errorf("pprof index status = %d, want 200", recP.Code)
	}
}

// TestHandlerEmptyRegistry: every endpoint stays well-formed with a
// completely empty (or absent) registry and tracer and no options.
func TestHandlerEmptyRegistry(t *testing.T) {
	for name, h := range map[string]http.Handler{
		"empty": Handler(telemetry.NewRegistry(nil), telemetry.NewTracer(nil)),
		"nil":   Handler(nil, nil),
	} {
		t.Run(name, func(t *testing.T) {
			for _, path := range []string{
				"/metrics", "/debug/qos", "/debug/qos/chrome",
				"/debug/qos/timeline", "/debug/qos/slo", "/debug/qos/dashboard",
			} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d", path, rec.Code)
				}
				// An empty registry legitimately renders an empty
				// Prometheus exposition; everything else has structure.
				if rec.Body.Len() == 0 && path != "/metrics" {
					t.Errorf("GET %s: empty body", path)
				}
				if strings.HasSuffix(path, "timeline") || strings.HasSuffix(path, "slo") {
					var v any
					if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
						t.Errorf("GET %s: invalid JSON: %v", path, err)
					}
				}
			}
		})
	}
}

// TestConcurrentScrape hammers every endpoint from several goroutines
// while the registry and tracer mutate — the -race scrape test the
// live export server depends on.
func TestConcurrentScrape(t *testing.T) {
	reg, tr, clk := sloTelemetry()
	tl := telemetry.NewTimeline(reg)
	srv, err := Serve("127.0.0.1:0", reg, tr,
		WithTimeline(tl), WithSLOTargets([]telemetry.SLOTarget{{Policy: "FrameRate"}}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: advances telemetry while scrapers read
		defer wg.Done()
		g := reg.Gauge("host.h1.cpu_load")
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			clk.add(time.Millisecond)
			g.Set(float64(i % 10))
			tl.Sample()
			if i%25 == 0 {
				subj := fmt.Sprintf("/h1/app/exe/%d", i)
				tr.Begin(subj, "FrameRate", "coordinator", "x")
				tr.Resolve(subj, "FrameRate")
			}
		}
	}()

	paths := []string{"/metrics", "/debug/qos", "/debug/qos/timeline", "/debug/qos/slo", "/debug/qos/dashboard"}
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := client.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestComplianceReportRendering(t *testing.T) {
	reg, tr, _ := sloTelemetry()
	tl := telemetry.NewTimeline(reg)
	tl.Sample()
	r := BuildComplianceReport("seed 7", reg, tr, tl,
		[]telemetry.SLOTarget{{Policy: "FrameRate", Objective: "frame_rate in 23..27"}})
	if r.Completed != 1 || r.Open != 1 {
		t.Fatalf("completed=%d open=%d, want 1/1", r.Completed, r.Open)
	}

	var md bytes.Buffer
	if err := r.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"# Soft-QoS compliance report — seed 7",
		"## Policy compliance", "| FrameRate |",
		"## Control-loop stage latency", "| detect |",
		"## Open episodes", "## Flight recorder",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}

	// Same inputs render byte-identical documents.
	var md2 bytes.Buffer
	if err := r.WriteMarkdown(&md2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(md.Bytes(), md2.Bytes()) {
		t.Error("markdown rendering is not deterministic")
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rt ComplianceReport
	if err := json.Unmarshal(js.Bytes(), &rt); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if rt.Timeline == nil || rt.Timeline.Samples != 1 {
		t.Errorf("report timeline = %+v", rt.Timeline)
	}

	dir := filepath.Join(t.TempDir(), "report")
	if err := DumpReport(dir, r); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compliance.md", "compliance.json", "timeline.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestRegisterRuntimeGauges(t *testing.T) {
	reg := telemetry.NewRegistry(nil)
	RegisterRuntimeGauges(reg)
	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	if v, ok := got["go.goroutines"]; !ok || v < 1 {
		t.Errorf("go.goroutines = %v (present %v), want >= 1", v, ok)
	}
	if v, ok := got["go.heap_bytes"]; !ok || v <= 0 {
		t.Errorf("go.heap_bytes = %v (present %v), want > 0", v, ok)
	}
}

func TestStartSamplerStops(t *testing.T) {
	reg, tr, _ := sloTelemetry()
	tl := telemetry.NewTimeline(reg)
	miner := telemetry.NewLoopMiner(reg)
	stop := StartSampler(5*time.Millisecond, tl, miner, tr)
	time.Sleep(25 * time.Millisecond)
	stop()
	n := tl.Samples()
	if n == 0 {
		t.Fatal("sampler never sampled")
	}
	if n := reg.Sketch(telemetry.MetricLoopDetectMs).Count(); n != 1 {
		t.Errorf("miner consumed %d completed episodes, want 1", n)
	}
	time.Sleep(15 * time.Millisecond)
	if tl.Samples() != n {
		t.Error("sampler kept running after stop")
	}
}
