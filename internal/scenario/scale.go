package scenario

import (
	"fmt"
	"time"

	"softqos/internal/agent"
	"softqos/internal/instrument"
	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/netsim"
	"softqos/internal/repository"
	"softqos/internal/sched"
	"softqos/internal/sim"
	"softqos/internal/video"
)

// ScaleConfig sizes a whole managed domain: many client hosts, several
// managed playback sessions per host, one policy agent, one repository
// and one domain manager — the deployment shape of Figure 2 at fleet
// scale.
type ScaleConfig struct {
	Seed            int64
	Hosts           int // client hosts (default 8)
	SessionsPerHost int // managed sessions per host (default 3)
	LoadPerHost     float64
	// DecodeCost per session (default 10 ms so several sessions fit).
	DecodeCost time.Duration
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hosts <= 0 {
		c.Hosts = 8
	}
	if c.SessionsPerHost <= 0 {
		c.SessionsPerHost = 3
	}
	if c.DecodeCost <= 0 {
		c.DecodeCost = 10 * time.Millisecond
	}
	return c
}

// ScaleResult summarizes a scale run.
type ScaleResult struct {
	Sessions    int
	MeanFPS     float64 // across all sessions
	MinFPS      float64 // worst session
	Violations  uint64  // violations seen by all host managers
	Adjustments int     // CPU adjustments across hosts
	Escalations uint64
	Events      uint64 // simulation events executed
	WallTime    time.Duration

	// SessionFPS is the per-session mean over the measurement window.
	SessionFPS []float64
	// Notifies sums coordinator notifications (violations + overshoots).
	Notifies uint64
}

// Scale builds and runs a domain-sized deployment for warmup+measure.
func Scale(cfg ScaleConfig, warmup, measure time.Duration) ScaleResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	s := sim.New(cfg.Seed)
	bus := msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	net := netsim.New(s)

	// Shared infrastructure: repository, agent, domain manager, one
	// server host behind one core switch.
	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	admin := mgmt.NewAdmin(svc)
	mustNil(svc.DefineApplication("VideoApplication", "mpeg_play", "mpeg_serve"))
	mustNil(svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}))
	mustNil(admin.AddPolicy(Example1Policy, repository.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}))

	pa := agent.New(AgentAddr, svc, bus.Send)
	bus.Bind(AgentAddr, "mgmt", func(m msg.Message) { pa.HandleMessage(m) })
	dm := manager.NewDomainManager(DomainAddr, bus.Send, manager.DomainConfig{})
	bus.Bind(DomainAddr, "mgmt", func(m msg.Message) { dm.HandleMessage(m) })

	// Size the server host so the send side is not the bottleneck (the
	// scale experiment stresses the management plane, not the server):
	// total send demand is sessions * serverCost * fps.
	totalSessions := cfg.Hosts * cfg.SessionsPerHost
	demand := float64(totalSessions) * (2.0 / 33.3)
	serverCPUs := int(demand/0.7) + 1
	serverHost := sched.NewHost(s, "server-host", sched.WithCPUs(serverCPUs))
	net.AddNode("server-host", nil)
	// A fat core switch: the scale experiment stresses management, not
	// the network.
	sw := net.AddSwitch("sw-core", 64<<20, 8<<20)
	serverHM := manager.NewHostManager(ServerHMAddr, serverHost, bus.Send, "", manager.Liveness{})
	bus.Bind(ServerHMAddr, "server-host", func(m msg.Message) { serverHM.HandleMessage(m) })
	dm.RegisterAppServer("VideoApplication", ServerHMAddr, "mpeg_serve")

	stream := video.StreamConfig{DecodeCost: cfg.DecodeCost}
	type sess struct {
		client *video.Client
		fps    *instrument.RateSensor
		coord  *instrument.Coordinator
		mark   int
	}
	var sessions []*sess
	var hms []*manager.HostManager

	for hIdx := 0; hIdx < cfg.Hosts; hIdx++ {
		hostName := fmt.Sprintf("client-%02d", hIdx)
		host := sched.NewHost(s, hostName)
		hmAddr := "/" + hostName + "/QoSHostManager"
		hm := manager.NewHostManager(hmAddr, host, bus.Send, DomainAddr, manager.Liveness{})
		bus.Bind(hmAddr, hostName, func(m msg.Message) { hm.HandleMessage(m) })
		hms = append(hms, hm)

		for sIdx := 0; sIdx < cfg.SessionsPerHost; sIdx++ {
			node := fmt.Sprintf("%s/s%d", hostName, sIdx)
			net.AddNode(node, nil)
			net.SetRoute("server-host", node, 5*time.Millisecond, sw)
			video.StartServer(serverHost, net, "server-host", node, stream)
			cl := video.StartClient(host, net, node, stream)
			eff := cl.Config()
			id := msg.Identity{Host: hostName, PID: cl.Proc.PID(),
				Executable: "mpeg_play", Application: "VideoApplication", UserRole: "viewer"}
			hm.Track(cl.Proc, id)

			clock := instrument.Clock(func() time.Duration { return s.Now().Duration() })
			se := &sess{client: cl}
			se.fps = instrument.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second)
			jit := instrument.NewJitterSensor("jitter_sensor", "jitter_rate", clock, eff.Interval())
			buf := instrument.NewValueSensor("buffer_sensor", "buffer_size",
				func() float64 { return float64(cl.Socket.Len()) })
			cl.OnDisplay = func(video.Frame) { se.fps.Tick(); jit.Tick() }
			s.Every(500*time.Millisecond, func() { buf.Sample(); se.fps.Flush() })

			coord := instrument.NewCoordinator(id, clock, bus.Send, AgentAddr, hmAddr)
			se.coord = coord
			coord.AddSensor(se.fps)
			coord.AddSensor(jit)
			coord.AddSensor(buf)
			bus.Bind(coord.Address(), hostName, func(m msg.Message) { _ = coord.HandleMessage(m) })
			s.After(time.Duration(1+len(sessions))*time.Millisecond, func() {
				mustNil(coord.Register())
			})
			sessions = append(sessions, se)
		}
		if cfg.LoadPerHost > 0 {
			loadgen.Offered(host, cfg.LoadPerHost)
		}
	}

	s.RunFor(warmup)
	for _, se := range sessions {
		se.mark = se.client.Displayed
	}
	s.RunFor(measure)

	out := ScaleResult{Sessions: len(sessions), MinFPS: 1 << 20,
		Events: s.Fired(), WallTime: time.Since(start)}
	var sum float64
	for _, se := range sessions {
		fps := float64(se.client.Displayed-se.mark) / measure.Seconds()
		out.SessionFPS = append(out.SessionFPS, fps)
		out.Notifies += se.coord.Notifies
		sum += fps
		if fps < out.MinFPS {
			out.MinFPS = fps
		}
	}
	out.MeanFPS = sum / float64(len(sessions))
	for _, hm := range hms {
		out.Violations += hm.ViolationsSeen
		out.Adjustments += hm.CPU().Adjustments
		out.Escalations += hm.Escalations
	}
	return out
}
