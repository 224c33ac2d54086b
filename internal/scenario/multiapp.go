package scenario

import (
	"fmt"
	"time"

	"softqos/internal/agent"
	"softqos/internal/instrument"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/netsim"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/sched"
	"softqos/internal/sim"
	"softqos/internal/video"
)

// MultiAppConfig parameterizes the administrative-policy experiment of
// Sections 2/3.1: two video sessions share one client host whose CPU
// cannot satisfy both.
type MultiAppConfig struct {
	Seed int64
	// Differentiated selects the administrative rule set: false treats
	// both sessions equally (both degrade); true gives the "physician"
	// session priority over the "student" session.
	Differentiated bool
	// DecodeCost per session (default 25 ms: two sessions need 1.5 CPUs).
	DecodeCost time.Duration
}

// MultiAppResult reports per-role outcomes.
type MultiAppResult struct {
	PhysicianFPS float64
	StudentFPS   float64
	PhysicianOK  bool // physician met the 25±2 expectation on average
}

// session is one playback client plus its instrumentation.
type session struct {
	client *video.Client
	coord  *instrument.Coordinator
	fps    *instrument.RateSensor
}

// MultiApp runs two concurrent managed playback sessions on one host for
// warmup+measure and reports the mean FPS each achieved.
func MultiApp(cfg MultiAppConfig, warmup, measure time.Duration) MultiAppResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DecodeCost <= 0 {
		cfg.DecodeCost = 25 * time.Millisecond
	}
	s := sim.New(cfg.Seed)
	bus := msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	net := netsim.New(s, obs.Kit{})
	clientHost := sched.NewHost(s, "client-host", obs.Kit{})
	serverHost := sched.NewHost(s, "server-host", obs.Kit{})

	sw := net.AddSwitch("sw", 4<<20, 512<<10)
	net.AddNode("server-host", nil)

	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	admin := mgmt.NewAdmin(svc)
	mustNil(svc.DefineApplication("VideoApplication", "mpeg_play", "mpeg_serve"))
	mustNil(svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}))
	mustNil(svc.DefineRole("physician"))
	mustNil(svc.DefineRole("student"))
	mustNil(admin.AddPolicy(Example1Policy, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}))

	pa := agent.New(AgentAddr, svc, bus.Send)
	bus.Bind(AgentAddr, "mgmt", func(m msg.Message) { pa.HandleMessage(m) })

	hm := manager.NewHostManager(ClientHMAddr, clientHost, bus.Send, "", manager.Liveness{}, obs.Kit{})
	if cfg.Differentiated {
		mustNil(hm.LoadRules(manager.DifferentiatedHostRules))
	}
	bus.Bind(ClientHMAddr, "client-host", func(m msg.Message) { hm.HandleMessage(m) })

	stream := video.StreamConfig{DecodeCost: cfg.DecodeCost}
	mk := func(role, node string) *session {
		net.AddNode(node, nil)
		net.SetRoute("server-host", node, 5*time.Millisecond, sw)
		video.StartServer(serverHost, net, "server-host", node, stream)
		cl := video.StartClient(clientHost, net, node, stream)
		eff := cl.Config()
		id := msg.Identity{Host: "client-host", PID: cl.Proc.PID(),
			Executable: "mpeg_play", Application: "VideoApplication", UserRole: role}
		hm.Track(cl.Proc, id)

		clock := instrument.Clock(func() time.Duration { return s.Now().Duration() })
		ses := &session{client: cl}
		ses.fps = instrument.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second)
		jit := instrument.NewJitterSensor("jitter_sensor", "jitter_rate", clock, eff.Interval())
		buf := instrument.NewValueSensor("buffer_sensor", "buffer_size",
			func() float64 { return float64(cl.Socket.Len()) })
		cl.OnDisplay = func(video.Frame) { ses.fps.Tick(); jit.Tick() }
		s.Every(500*time.Millisecond, func() { buf.Sample(); ses.fps.Flush() })

		ses.coord = instrument.NewCoordinator(id, clock, bus.Send, AgentAddr, ClientHMAddr)
		ses.coord.AddSensor(ses.fps)
		ses.coord.AddSensor(jit)
		ses.coord.AddSensor(buf)
		bus.Bind(ses.coord.Address(), "client-host", func(m msg.Message) {
			_ = ses.coord.HandleMessage(m)
		})
		s.After(time.Millisecond, func() { mustNil(ses.coord.Register()) })
		return ses
	}
	phys := mk("physician", "client-phys")
	stud := mk("student", "client-stud")

	s.RunFor(warmup)
	p0, s0 := phys.client.Displayed, stud.client.Displayed
	s.RunFor(measure)
	res := MultiAppResult{
		PhysicianFPS: float64(phys.client.Displayed-p0) / measure.Seconds(),
		StudentFPS:   float64(stud.client.Displayed-s0) / measure.Seconds(),
	}
	res.PhysicianOK = res.PhysicianFPS > 23
	return res
}

// MultiAppTable runs the experiment both ways for reporting.
func MultiAppTable(seed int64, warmup, measure time.Duration) string {
	eq := MultiApp(MultiAppConfig{Seed: seed}, warmup, measure)
	df := MultiApp(MultiAppConfig{Seed: seed, Differentiated: true}, warmup, measure)
	return fmt.Sprintf(
		"policy            physician_fps  student_fps\n"+
			"equal             %13.2f  %11.2f\n"+
			"differentiated    %13.2f  %11.2f\n",
		eq.PhysicianFPS, eq.StudentFPS, df.PhysicianFPS, df.StudentFPS)
}
