package repository

import (
	"fmt"
	"testing"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/policy"
	"softqos/internal/telemetry"
)

const benchPolicySrc = `
oblig BenchPolicy {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 25(+2)(-2) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`

// benchService builds the demo information model with one stored
// policy.
func benchService(b testing.TB) *Service {
	b.Helper()
	dir := NewDirectory(QoSSchema())
	svc := NewService(LocalStore{Dir: dir})
	for _, err := range []error{
		svc.DefineApplication("VideoApplication", "mpeg_play"),
		svc.DefineExecutable("mpeg_play", map[string][]string{
			"fps_sensor":    {"frame_rate"},
			"jitter_sensor": {"jitter_rate"},
			"buffer_sensor": {"buffer_size"},
		}),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	pol, err := policy.ParseOne(benchPolicySrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.StorePolicy(pol, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkPoliciesFor is the full repository lookup a registration
// costs on an agent cache miss — the baseline the delta-maintained
// cache is measured against.
func BenchmarkPoliciesFor(b *testing.B) {
	svc := benchService(b)
	id := msg.Identity{Host: "h-0", PID: 1, Executable: "mpeg_play",
		Application: "VideoApplication"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.PoliciesFor(id); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPoliciesForAllocations pins the lookup's allocations: Search walks
// every stored entry, and comparing map-key DNs as they are — instead of
// re-normalising each one, twice — took the lookup from 572 allocations
// to 248.
func TestPoliciesForAllocations(t *testing.T) {
	svc := benchService(t)
	id := msg.Identity{Host: "h-0", PID: 1, Executable: "mpeg_play", Application: "VideoApplication"}
	got := testing.AllocsPerRun(100, func() {
		if specs, err := svc.PoliciesFor(id); err != nil || len(specs) != 1 {
			t.Fatalf("PoliciesFor: %d specs, err %v", len(specs), err)
		}
	})
	if got > 300 {
		t.Errorf("PoliciesFor: %.0f allocs, budget 300", got)
	}
}

// BenchmarkHubAnnounce measures one generation announcement fanned out
// to 8 subscribers (validation, generation chaining, per-subscriber
// message construction; the send itself is a no-op).
func BenchmarkHubAnnounce(b *testing.B) {
	svc := benchService(b)
	specs, err := svc.PoliciesFor(msg.Identity{Executable: "mpeg_play"})
	if err != nil {
		b.Fatal(err)
	}
	hub := NewHub("/repo/hub", func(string, msg.Message) error { return nil }, obs.Kit{})
	for i := 0; i < 8; i++ {
		hub.Subscribe(fmt.Sprintf("/sub/%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.Announce("mpeg_play", "fleet", nil, specs,
			"bench", telemetry.TraceContext{}); err != nil {
			b.Fatal(err)
		}
	}
}
