package export

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/telemetry"
)

const rolloutSrc = `
oblig ExportedRollout {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

// rolloutController wires a minimal baking rollout for export tests.
func rolloutController(t *testing.T) *repository.Controller {
	t.Helper()
	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	for _, err := range []error{
		svc.DefineApplication("VideoApplication", "mpeg_play"),
		svc.DefineExecutable("mpeg_play", map[string][]string{
			"fps_sensor":    {"frame_rate"},
			"jitter_sensor": {"jitter_rate"},
			"buffer_sensor": {"buffer_size"},
		}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	hub := repository.NewHub("/repo/hub", func(string, msg.Message) error { return nil }, obs.Kit{})
	ctl := repository.NewController(hub, svc, repository.RolloutConfig{Bake: time.Hour})
	ctl.SetClock(func() time.Duration { return 0 }, func(time.Duration, func()) {})
	ctl.SetComplianceSource(func() []telemetry.PolicyCompliance { return nil })
	ctl.SetHosts(func() []string { return []string{"h-a", "h-b", "h-c"} })
	if _, err := ctl.Push(rolloutSrc, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	return ctl
}

// TestHandlerRolloutSection: with WithRollout attached, /debug/qos and
// /debug/qos/slo carry the rollout state and the dashboard renders the
// policy-rollout table; without it, the sections stay absent.
func TestHandlerRolloutSection(t *testing.T) {
	reg := telemetry.NewRegistry(func() time.Duration { return 0 })
	tracer := telemetry.NewTracer(func() time.Duration { return 0 })
	ctl := rolloutController(t)
	h := Handler(reg, tracer, WithRollout(ctl))

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec
	}

	var p Payload
	if err := json.Unmarshal(get("/debug/qos").Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Rollout == nil {
		t.Fatal("/debug/qos has no rollout section")
	}
	if p.Rollout.State != repository.RolloutBaking || p.Rollout.Policy != "ExportedRollout" {
		t.Fatalf("rollout = %+v", p.Rollout)
	}
	if got := p.Rollout.CanaryHosts; len(got) != 1 || got[0] != "h-a" {
		t.Fatalf("canary hosts = %v", got)
	}

	var sp SLOPayload
	if err := json.Unmarshal(get("/debug/qos/slo").Body.Bytes(), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Rollout == nil || sp.Rollout.Generation != p.Rollout.Generation {
		t.Fatalf("slo rollout = %+v, want generation %d", sp.Rollout, p.Rollout.Generation)
	}

	dash := get("/debug/qos/dashboard").Body.String()
	for _, want := range []string{"Policy rollout", "ExportedRollout@mpeg_play", "baking", "h-a"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// After the decision the history keeps the terminal state visible.
	if _, err := ctl.Rollback("operator test"); err != nil {
		t.Fatal(err)
	}
	dash = get("/debug/qos/dashboard").Body.String()
	if !strings.Contains(dash, "rolled-back") || !strings.Contains(dash, "operator test") {
		t.Error("dashboard missing rolled-back history row")
	}

	// Without the option the sections stay absent.
	bare := Handler(reg, tracer)
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/qos", nil))
	if strings.Contains(rec.Body.String(), `"rollout"`) {
		t.Error("bare handler exported a rollout section")
	}
}
