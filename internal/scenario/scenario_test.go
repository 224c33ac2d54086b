package scenario

import (
	"testing"
	"time"

	"softqos/internal/video"
)

const (
	warm    = 20 * time.Second
	measure = 90 * time.Second
)

func TestUnloadedPlaybackNearNominal(t *testing.T) {
	res := Build(Config{Managed: false}).Run(warm, measure)
	if res.MeanFPS < 28 || res.MeanFPS > 30.5 {
		t.Errorf("unloaded normal fps = %.2f, want ~29.4", res.MeanFPS)
	}
	if res.Notifies != 0 {
		t.Errorf("unmanaged run produced %d notifications", res.Notifies)
	}
}

func TestNormalSchedulingCollapsesUnderLoad(t *testing.T) {
	light := Build(Config{ClientLoad: 0, Managed: false}).Run(warm, measure)
	heavy := Build(Config{ClientLoad: 9, Managed: false}).Run(warm, measure)
	if heavy.MeanFPS > light.MeanFPS/2 {
		t.Errorf("normal scheduling did not collapse: %.2f -> %.2f fps", light.MeanFPS, heavy.MeanFPS)
	}
	if heavy.MeanFPS > 10 {
		t.Errorf("normal fps under 9 spinners = %.2f, want < 10", heavy.MeanFPS)
	}
}

func TestManagedPlaybackStaysInBand(t *testing.T) {
	res := Build(Config{ClientLoad: 9, Managed: true}).Run(warm, measure)
	if res.MeanFPS < 23 {
		t.Errorf("managed fps under heavy load = %.2f, want >= 23 (within policy band)", res.MeanFPS)
	}
	if res.Violations == 0 {
		t.Error("managed run under load saw no violations")
	}
	if res.CPUAdjustments == 0 {
		t.Error("CPU manager made no adjustments")
	}
	maxBoost := 0
	for _, smp := range res.Timeline {
		if smp.Boost > maxBoost {
			maxBoost = smp.Boost
		}
	}
	if maxBoost <= 0 {
		t.Errorf("boost never rose above 0 under load (final %d)", res.FinalBoost)
	}
	if res.InBandFraction < 0.7 {
		t.Errorf("in-band fraction = %.2f, want >= 0.7", res.InBandFraction)
	}
}

func TestManagedReclaimsWhenUnloaded(t *testing.T) {
	res := Build(Config{ClientLoad: 0, Managed: true}).Run(warm, measure)
	if res.MeanFPS < 28 {
		t.Errorf("managed unloaded fps = %.2f", res.MeanFPS)
	}
	// Above the 27 upper bound the framework reclaims: boost sinks to the
	// floor and overshoot reports flow.
	if res.Overshoots == 0 {
		t.Error("no overshoot reports at 29.4 fps")
	}
	if res.FinalBoost >= 0 {
		t.Errorf("final boost = %d, want reclaimed below 0", res.FinalBoost)
	}
}

func TestFigure3Shape(t *testing.T) {
	rows := Figure3([]float64{0.70, 5.00, 10.00}, warm, measure, 1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Normal scheduling declines monotonically with load.
	if !(rows[0].NormalFPS > rows[1].NormalFPS && rows[1].NormalFPS > rows[2].NormalFPS) {
		t.Errorf("normal series not declining: %.2f %.2f %.2f",
			rows[0].NormalFPS, rows[1].NormalFPS, rows[2].NormalFPS)
	}
	// Managed playback stays within the policy band at every load.
	for _, r := range rows {
		if r.ManagedFPS < 23 || r.ManagedFPS > 30.5 {
			t.Errorf("managed fps at load %.2f = %.2f, want in [23, 30.5]", r.OfferedLoad, r.ManagedFPS)
		}
	}
	// The crossover: at the heaviest load the framework wins by a wide
	// factor (paper: ~28 vs ~5).
	if rows[2].ManagedFPS < 2.5*rows[2].NormalFPS {
		t.Errorf("managed/normal at load 10 = %.2f/%.2f, want factor >= 2.5",
			rows[2].ManagedFPS, rows[2].NormalFPS)
	}
	// At the baseline point both schedulers deliver full rate.
	if rows[0].NormalFPS < 28 || rows[0].ManagedFPS < 28 {
		t.Errorf("baseline fps = %.2f/%.2f, want ~29", rows[0].NormalFPS, rows[0].ManagedFPS)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Build(Config{ClientLoad: 5, Managed: true, Seed: 7}).Run(warm, measure)
	b := Build(Config{ClientLoad: 5, Managed: true, Seed: 7}).Run(warm, measure)
	if a.MeanFPS != b.MeanFPS || a.Violations != b.Violations || a.CPUAdjustments != b.CPUAdjustments {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// serverFaultStream makes the server the bottleneck: an expensive send
// path and a cheap client decode, so a starved server is unambiguously a
// remote fault (empty client buffer).
func serverFaultStream() video.StreamConfig {
	return video.StreamConfig{ServerCost: 34 * time.Millisecond, DecodeCost: 10 * time.Millisecond}
}

func TestServerFaultLocalizedAndCorrected(t *testing.T) {
	sys := Build(Config{Managed: true, ServerLoad: 4, Stream: serverFaultStream()})
	res := sys.Run(30*time.Second, 2*time.Minute)
	if res.Escalations == 0 {
		t.Fatal("client host manager never escalated a remote fault")
	}
	if res.ServerFaults == 0 {
		t.Fatalf("domain manager did not indict the server (network=%d)", res.NetworkFaults)
	}
	if res.NetworkFaults != 0 {
		t.Errorf("domain manager wrongly blamed the network %d times", res.NetworkFaults)
	}
	if sys.Server.Proc.Boost() <= 0 {
		t.Errorf("server process boost = %d after correction", sys.Server.Proc.Boost())
	}
	// With the server boosted over its competing load, playback recovers.
	tail := res.Timeline[len(res.Timeline)-20:]
	recovered := 0
	for _, s := range tail {
		if s.FPS > 23 {
			recovered++
		}
	}
	if recovered < 15 {
		t.Errorf("playback did not recover after server boost: tail in-band %d/20", recovered)
	}
}

func TestNetworkFaultLocalizedAndRerouted(t *testing.T) {
	sys := Build(Config{Managed: true, BackupRoute: true,
		Stream: video.StreamConfig{DecodeCost: 10 * time.Millisecond}})
	// Let the stream settle, then congest the core switch.
	sys.Sim.RunFor(30 * time.Second)
	sys.CongestNetwork(6.0)
	res := sys.Run(0, 2*time.Minute)
	if res.NetworkFaults == 0 {
		t.Fatalf("network fault not diagnosed (server=%d escalations=%d)",
			res.ServerFaults, res.Escalations)
	}
	if res.ServerFaults != 0 {
		t.Errorf("server wrongly indicted %d times", res.ServerFaults)
	}
	if sys.Rerouted == 0 {
		t.Fatal("no reroute performed")
	}
	// After rerouting onto the backup switch playback recovers.
	tail := res.Timeline[len(res.Timeline)-20:]
	recovered := 0
	for _, s := range tail {
		if s.FPS > 23 {
			recovered++
		}
	}
	if recovered < 15 {
		t.Errorf("playback did not recover after reroute: tail in-band %d/20", recovered)
	}
	if sys.CoreSwitch.Drops == 0 {
		t.Error("congested core switch recorded no drops")
	}
}

func TestTimelineSamples(t *testing.T) {
	res := Build(Config{ClientLoad: 5, Managed: true}).Run(warm, 60*time.Second)
	if len(res.Timeline) != 60 {
		t.Fatalf("timeline samples = %d, want 60", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].At <= res.Timeline[i-1].At {
			t.Fatal("timeline not strictly increasing")
		}
	}
}

func TestTighterPolicyViaRole(t *testing.T) {
	// A tighter policy (29±1) cannot be met (max 29.4 is inside, actually:
	// band (28,30)); the controller should hold fps near the top.
	src := `
oblig TightVideo {
  subject (...)/VideoApplication/qosl_coordinator
  target  fps_sensor, jitter_sensor, buffer_sensor, (...)/QoSHostManager
  on      not (frame_rate = 29(+1)(-1) and jitter_rate < 1.25)
  do      fps_sensor->read(out frame_rate);
          jitter_sensor->read(out jitter_rate);
          buffer_sensor->read(out buffer_size);
          (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
}
`
	// Swap the stored policy before the run: the coordinator registers
	// 1 ms in and receives the tighter one.
	sys := Build(Config{ClientLoad: 5, Managed: true})
	if err := sys.Admin.RemovePolicy("NotifyQoSViolation", videoPlayer); err != nil {
		t.Fatal(err)
	}
	if err := sys.Admin.AddPolicy(src, videoPlayer); err != nil {
		t.Fatal(err)
	}
	res := sys.Run(warm, measure)
	if res.MeanFPS < 26 {
		t.Errorf("tight policy mean fps = %.2f, want >= 26", res.MeanFPS)
	}
}
