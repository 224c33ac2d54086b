package softqos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

// TestLiveSLOCompliance drives a violation through the live control loop
// and watches the SLO surface tell the truth about it: while the induced
// violation is open, /debug/qos/slo reports fast-window compliance below
// 1.0 with the episode listed as open; after adaptation recovers the
// stream and a clean stretch passes, compliance climbs back toward 1.0.
func TestLiveSLOCompliance(t *testing.T) {
	svc := NewRepositoryService(NewDirectory())
	if err := svc.DefineApplication("VideoApplication", "mpeg_play"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := NewAdmin(svc).AddPolicy(Example1Policy, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}

	agent, err := ServeLiveAgent("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	lm, err := NewLiveHostManager("127.0.0.1:0", manager.OverloadHostRules)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()

	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	reg := telemetry.NewRegistry(wall)
	tracer := telemetry.NewTracer(wall)
	agent.SetTelemetry(reg)
	lm.SetTelemetry(reg, tracer)

	coord := NewLiveCoordinator(Identity{
		Host: "live-host", PID: os.Getpid(), Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), lm.Addr(), Kit{Metrics: reg, Tracer: tracer})
	defer coord.Close()

	// The full live surface: flight recorder + miner sampled on the wall
	// clock, SLO windows short enough for a test to move them.
	tl := telemetry.NewTimeline(reg)
	miner := telemetry.NewLoopMiner(reg)
	stopSampler := export.StartSampler(100*time.Millisecond, tl, miner, tracer)
	defer stopSampler()
	srv, err := export.Serve("127.0.0.1:0", reg, tracer,
		export.WithTimeline(tl),
		export.WithSLOTargets([]telemetry.SLOTarget{{
			Policy: "NotifyQoSViolation", Objective: "frame_rate = 25(+2)(-2) and jitter_rate < 1.25",
			FastWindow: 2 * time.Second, SlowWindow: 20 * time.Second,
		}}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fps := NewValueSensor("fps_sensor", "frame_rate", nil)
	jit := NewValueSensor("jitter_sensor", "jitter_rate", nil)
	buf := NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	// The actuator acknowledges directives but the test keeps control of
	// the delivered rate, so the violation stays open exactly as long as
	// the test wants it to.
	coord.AddActuator(NewFuncActuator("frame_skip", func(args ...string) error { return nil }))
	coord.SetNotifyInterval(0)

	if err := coord.Register(); err != nil {
		t.Fatalf("register: %v", err)
	}

	scrapeSLO := func() export.SLOPayload {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(fmt.Sprintf("http://%s/debug/qos/slo", srv.Addr()))
		if err != nil {
			t.Fatalf("GET /debug/qos/slo: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var p export.SLOPayload
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("/debug/qos/slo is not valid JSON: %v", err)
		}
		return p
	}
	policyRow := func(p export.SLOPayload) telemetry.PolicyCompliance {
		t.Helper()
		for _, s := range p.SLOs {
			if s.Policy == "NotifyQoSViolation" {
				return s
			}
		}
		t.Fatalf("policy NotifyQoSViolation missing from payload: %+v", p.SLOs)
		return telemetry.PolicyCompliance{}
	}

	// Phase 1: hold the stream out of band for >1s of wall time.
	feed := func(rate float64, hold time.Duration) {
		deadline := time.Now().Add(hold)
		for time.Now().Before(deadline) {
			coord.Sync(func() {
				jit.Set(0.3)
				buf.Set(12)
				fps.Set(rate)
			})
			time.Sleep(10 * time.Millisecond)
		}
	}
	feed(10.0, 1200*time.Millisecond)

	during := policyRow(scrapeSLO())
	if during.FastCompliance >= 1.0 {
		t.Fatalf("fast compliance during open violation = %v, want < 1.0", during.FastCompliance)
	}
	if during.Open == 0 {
		t.Errorf("violation held for 1.2s but no open episode reported: %+v", during)
	}
	if during.FastBurn <= 1.0 {
		t.Errorf("fast burn during violation = %v, want > 1 (budget draining)", during.FastBurn)
	}

	// Phase 2: recover — deliver in-band readings until the coordinator
	// resolves the episode, then a clean stretch longer than FastWindow.
	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		feed(23.5, 50*time.Millisecond)
		for _, tr := range tracer.TracesSnapshot() {
			if _, ok := tr.TimeToRecovery(); ok {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("violation episode did not recover within the deadline")
	}
	feed(23.5, 2500*time.Millisecond)

	after := policyRow(scrapeSLO())
	if after.Open != 0 {
		t.Errorf("episodes still open after recovery: %+v", after)
	}
	if after.FastCompliance <= during.FastCompliance {
		t.Errorf("fast compliance did not improve after recovery: during=%v after=%v",
			during.FastCompliance, after.FastCompliance)
	}
	if after.FastCompliance < 0.95 {
		t.Errorf("fast compliance after a clean 2.5s (window 2s) = %v, want >= 0.95", after.FastCompliance)
	}

	// The recovered episode shows up in the loop decomposition, and the
	// miner fed the loop.* histograms the flight recorder retains.
	payload := scrapeSLO()
	if payload.Loop.Detect.Count == 0 {
		t.Error("loop stats counted no completed episodes after recovery")
	}
	if _, ok := tl.SeriesByName(telemetry.MetricLoopDetectMs + ".p50"); !ok {
		t.Error("flight recorder retained no loop.detect_ms series")
	}

	// Dashboard smoke: the HTML renders with the policy row and charts.
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/qos/dashboard", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/qos/dashboard status %d", resp.StatusCode)
	}
	html := string(body)
	if !strings.Contains(html, "NotifyQoSViolation") || !strings.Contains(html, "<svg") {
		t.Error("dashboard missing the SLO row or sparklines")
	}
}
