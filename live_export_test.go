package softqos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"softqos/internal/manager"
	"softqos/internal/telemetry"
	"softqos/internal/telemetry/export"
)

// TestLiveObservabilityEndpoints drives the full control loop over real
// TCP — register, violate the frame-rate policy, adapt back into the
// band — with the observability surface attached, then scrapes the HTTP
// endpoints the way an operator would:
//
//   - /debug/qos must contain one violation trace whose spans come from
//     the coordinator, the host manager AND a resource manager (the
//     cross-process causal tree the trace contexts stitch together),
//     plus at least one rule-firing explanation from the inference
//     engine.
//   - /metrics must parse as Prometheus text exposition format.
func TestLiveObservabilityEndpoints(t *testing.T) {
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

	// One registry and one tracer for the whole deployment: every
	// component's spans and explanations land in one causal tree per
	// episode, which is what the debug endpoint exports.
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

	srv, err := export.Serve("127.0.0.1:0", reg, tracer)
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

	rate := 10.0
	coord.AddActuator(NewFuncActuator("frame_skip", func(args ...string) error {
		rate = 23.5
		return nil
	}))
	coord.SetNotifyInterval(0)

	if err := coord.Register(); err != nil {
		t.Fatalf("register: %v", err)
	}

	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		coord.Sync(func() {
			jit.Set(0.3)
			buf.Set(12)
			fps.Set(rate)
		})
		time.Sleep(10 * time.Millisecond)
		for _, tr := range tracer.Traces() {
			if _, ok := tr.TimeToRecovery(); ok {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("control loop did not recover within the deadline")
	}

	get := func(path string) string {
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
		return string(body)
	}

	// The causal tree: one trace carrying coordinator, host-manager and
	// resource-manager spans plus an inference explanation.
	var payload export.Payload
	if err := json.Unmarshal([]byte(get("/debug/qos")), &payload); err != nil {
		t.Fatalf("/debug/qos is not valid JSON: %v", err)
	}
	if len(payload.Traces) == 0 {
		t.Fatal("/debug/qos exported no violation traces")
	}
	complete := false
	for _, tr := range payload.Traces {
		srcs := make(map[string]bool)
		for _, sp := range tr.Spans {
			srcs[sp.Src] = true
		}
		if srcs["coordinator"] && srcs["hostmanager"] &&
			(srcs["cpu-manager"] || srcs["memory-manager"]) &&
			len(tr.Explanations) > 0 {
			complete = true
			// The explanation must identify the engine and rule that fired
			// and the facts that matched.
			ex := tr.Explanations[0]
			if ex.Engine == "" || ex.Rule == "" || len(ex.Matched) == 0 {
				t.Errorf("explanation incomplete: %+v", ex)
			}
			// Spans propagated across the TCP hop still parent into the
			// tree: at least one non-root span references its cause.
			chained := false
			for _, sp := range tr.Spans {
				if sp.Parent > 0 {
					chained = true
				}
			}
			if !chained {
				t.Errorf("trace %s has no parented spans", tr.ID)
			}
		}
	}
	if !complete {
		for _, tr := range payload.Traces {
			t.Logf("trace %s: spans=%d explanations=%d", tr.ID, len(tr.Spans), len(tr.Explanations))
			for _, sp := range tr.Spans {
				t.Logf("  span %d parent=%d src=%q stage=%s", sp.ID, sp.Parent, sp.Src, sp.Stage)
			}
		}
		t.Fatal("no trace unifies coordinator, host manager and resource manager spans with an explanation")
	}
	if payload.Metrics == nil || len(payload.Metrics.Counters) == 0 {
		t.Error("/debug/qos payload missing metrics snapshot")
	}

	// The scrape surface: non-empty, well-formed Prometheus text.
	metrics := get("/metrics")
	promLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	samples := 0
	for _, ln := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if ln == "" {
			t.Error("/metrics contains a blank line")
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Errorf("/metrics line not in Prometheus text format: %q", ln)
		}
		samples++
	}
	if samples == 0 {
		t.Error("/metrics has no samples")
	}
	if !strings.Contains(metrics, "softqos_msg_net_sent") {
		t.Errorf("/metrics missing transport counters:\n%.400s", metrics)
	}
}
