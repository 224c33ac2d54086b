package softqos

import (
	"testing"
	"time"

	"softqos/internal/repository"
)

func TestFacadeScenarioSmoke(t *testing.T) {
	res := Build(Config{ClientLoad: 5, Managed: true}).Run(20*time.Second, 60*time.Second)
	if res.MeanFPS < 23 {
		t.Errorf("managed fps = %.2f", res.MeanFPS)
	}
}

func TestFacadePolicyAndRepository(t *testing.T) {
	dir := NewDirectory()
	svc := NewRepositoryService(dir)
	admin := NewAdmin(svc)
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
	if err := admin.AddPolicy(Example1Policy, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	specs, err := svc.PoliciesFor(Identity{Executable: "mpeg_play"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(specs[0].Conditions) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
}

// liveRig is a full live-mode deployment: repository, agent, collector,
// and an instrumented coordinator with the Example 1 sensors.
type liveRig struct {
	agent *LiveAgent
	coll  *LiveCollector
	coord *LiveCoordinator
	fps   *RateSensor
	jit   *JitterSensor
	buf   *ValueSensor
}

func newLiveRig(t testing.TB) *liveRig {
	t.Helper()
	dir := NewDirectory()
	svc := NewRepositoryService(dir)
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
	coll, err := NewLiveCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &liveRig{agent: agent, coll: coll}
	t.Cleanup(func() {
		if r.coord != nil {
			r.coord.Close()
		}
		_ = agent.Close()
		_ = coll.Close()
	})
	r.coord = NewLiveCoordinator(Identity{
		Host: "live-host", PID: 1234, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), coll.Addr(), Kit{})
	clock := r.coord.WallClock()
	r.fps = NewRateSensor("fps_sensor", "frame_rate", clock, 100*time.Millisecond)
	r.jit = NewJitterSensor("jitter_sensor", "jitter_rate", clock, 33*time.Millisecond)
	r.buf = NewValueSensor("buffer_sensor", "buffer_size", nil)
	r.coord.AddSensor(r.fps)
	r.coord.AddSensor(r.jit)
	r.coord.AddSensor(r.buf)
	return r
}

func TestLiveRegistrationInstallsPolicies(t *testing.T) {
	r := newLiveRig(t)
	if err := r.coord.Register(); err != nil {
		t.Fatal(err)
	}
	ps := r.coord.Policies()
	if len(ps) != 1 || ps[0] != "NotifyQoSViolation" {
		t.Fatalf("live policies = %v", ps)
	}
}

func TestLiveViolationReachesCollector(t *testing.T) {
	r := newLiveRig(t)
	if err := r.coord.Register(); err != nil {
		t.Fatal(err)
	}
	r.coord.SetNotifyInterval(0)
	r.buf.Set(20)
	// Push a clearly violating frame rate through the real rate sensor:
	// ~10 fps against the 25±2 policy (one tick per 100 ms window).
	deadline := time.Now().Add(5 * time.Second)
	for r.coll.Violations() == 0 && time.Now().Before(deadline) {
		r.fps.Tick()
		time.Sleep(100 * time.Millisecond) // one tick per window => ~10 fps
		r.fps.Flush()
	}
	if r.coll.Violations() == 0 {
		t.Fatal("no violation reached the live collector")
	}
	last := r.coll.Last()
	if last.Policy != "NotifyQoSViolation" || last.ID.PID != 1234 {
		t.Errorf("last violation = %+v", last)
	}
	if _, ok := last.Readings["buffer_size"]; !ok {
		t.Errorf("violation readings missing buffer_size: %v", last.Readings)
	}
}

// TestFullLiveStack exercises the complete live distribution chain the
// prototype deployed: repository served over TCP, the policy agent
// resolving through a remote repository client, and an instrumented
// process registering over TCP — three network hops from policy store to
// installed policy.
func TestFullLiveStack(t *testing.T) {
	// Repository server with the video model.
	dir := NewDirectory()
	seed := NewRepositoryService(dir)
	if err := seed.DefineApplication("VideoApplication", "mpeg_play"); err != nil {
		t.Fatal(err)
	}
	if err := seed.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := NewAdmin(seed).AddPolicy(Example1Policy, PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}); err != nil {
		t.Fatal(err)
	}
	repoSrv, err := repository.ServeDirectory(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repoSrv.Close()

	// Policy agent resolving through the remote repository.
	repoClient, err := repository.DialDirectory(repoSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer repoClient.Close()
	agent, err := ServeLiveAgent("127.0.0.1:0", repository.NewService(repoClient))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	coll, err := NewLiveCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	// Instrumented process.
	coord := NewLiveCoordinator(Identity{
		Host: "h", PID: 99, Executable: "mpeg_play", Application: "VideoApplication",
	}, agent.Addr(), coll.Addr(), Kit{})
	defer coord.Close()
	clock := coord.WallClock()
	coord.AddSensor(NewRateSensor("fps_sensor", "frame_rate", clock, time.Second))
	coord.AddSensor(NewJitterSensor("jitter_sensor", "jitter_rate", clock, 33*time.Millisecond))
	coord.AddSensor(NewValueSensor("buffer_sensor", "buffer_size", nil))
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	if ps := coord.Policies(); len(ps) != 1 || ps[0] != "NotifyQoSViolation" {
		t.Fatalf("policies through the full stack = %v", ps)
	}
}
