package scenario

import (
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

// videoPlayer binds a policy to the video application's instrumented
// player, the executable every Example 1 policy governs.
var videoPlayer = repository.PolicyMeta{Application: "VideoApplication", Executable: "mpeg_play"}

// domain is the prologue every simulated deployment shares: the
// simulator, the management bus (message queues locally, sockets across
// hosts) and an empty repository behind a policy administrator.
type domain struct {
	s     *sim.Simulator
	bus   *msg.Bus
	svc   *repository.Service
	admin *mgmt.Admin
}

func newDomain(seed int64) domain {
	s := sim.New(seed)
	svc := repository.NewService(repository.LocalStore{Dir: repository.NewDirectory(repository.QoSSchema())})
	return domain{s: s, bus: msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond), svc: svc, admin: mgmt.NewAdmin(svc)}
}

// startAgent binds the policy agent, serving the repository, at AgentAddr.
func (d domain) startAgent(send msg.SendFunc, kit obs.Kit) *agent.PolicyAgent {
	pa := agent.New(AgentAddr, d.svc, send, kit)
	d.bus.Bind(AgentAddr, "mgmt", pa.HandleMessage)
	return pa
}

// startHostManager binds host's manager at addr on the host's bus node.
// It escalates to domainAddr ("" keeps every decision local).
func (d domain) startHostManager(addr string, host *sched.Host, send msg.SendFunc, domainAddr string,
	live manager.Liveness, kit obs.Kit) *manager.HostManager {
	hm := manager.NewHostManager(addr, host, send, domainAddr, live, kit)
	d.bus.Bind(addr, host.Name(), hm.HandleMessage)
	return hm
}

// sessionSpec places one playback session in a domain.
type sessionSpec struct {
	net  *netsim.Network
	sw   *netsim.Switch // the switch the route from the server crosses
	send msg.SendFunc   // the coordinator's management transport
	// server and client host the two processes; node is the client's
	// network node, routed from the server host's node.
	server, client *sched.Host
	node           string
	stream         video.StreamConfig
	role           string               // the client's user role
	hm             *manager.HostManager // tracks the client
	serverHM       *manager.HostManager // tracks the server; nil leaves it untracked
	// register is how far into the run the coordinator registers with
	// the policy agent; 0 leaves registration to the caller.
	register time.Duration
}

// session is one instrumented playback session of the video
// application: a server streaming to a client, the client's Example 1
// sensors and its QoS coordinator.
type session struct {
	server *video.Server
	client *video.Client
	coord  *instrument.Coordinator
	fps    *instrument.RateSensor
	jitter *instrument.JitterSensor
	buffer *instrument.ValueSensor
	// mark is the client's displayed-frame count when the measurement
	// window opened.
	mark int
}

// startSession starts a session: the route, the server and the client,
// both tracked by their host managers, the three sensors fed by the
// display probe (Example 2) and a 500 ms sampler, and the coordinator
// bound on the bus.
func (d domain) startSession(sp sessionSpec) *session {
	sp.net.AddNode(sp.node, nil)
	sp.net.SetRoute(sp.server.Name(), sp.node, 5*time.Millisecond, sp.sw)
	se := &session{server: video.StartServer(sp.server, sp.net, sp.server.Name(), sp.node, sp.stream)}
	cl := video.StartClient(sp.client, sp.net, sp.node, sp.stream)
	se.client = cl
	id := msg.Identity{Host: sp.client.Name(), PID: cl.Proc.PID(),
		Executable: "mpeg_play", Application: "VideoApplication", UserRole: sp.role}
	sp.hm.Track(cl.Proc, id)
	if sp.serverHM != nil {
		sp.serverHM.Track(se.server.Proc, msg.Identity{Host: sp.server.Name(), PID: se.server.Proc.PID(),
			Executable: "mpeg_serve", Application: "VideoApplication", UserRole: sp.role})
	}

	clock := instrument.Clock(func() time.Duration { return d.s.Now().Duration() })
	se.fps = instrument.NewRateSensor("fps_sensor", "frame_rate", clock, time.Second)
	se.jitter = instrument.NewJitterSensor("jitter_sensor", "jitter_rate", clock, cl.Config().Interval())
	se.buffer = instrument.NewValueSensor("buffer_sensor", "buffer_size",
		func() float64 { return float64(cl.Socket.Len()) })
	// The display probe fires after decode+display. The sampler polls the
	// socket and flushes the rate sensor, so a fully stalled stream still
	// reads ~0 fps.
	cl.OnDisplay = func(video.Frame) { se.fps.Tick(); se.jitter.Tick() }
	d.s.Every(500*time.Millisecond, func() { se.buffer.Sample(); se.fps.Flush() })

	se.coord = instrument.NewCoordinator(id, clock, sp.send, AgentAddr, sp.hm.Addr())
	se.coord.AddSensor(se.fps)
	se.coord.AddSensor(se.jitter)
	se.coord.AddSensor(se.buffer)
	d.bus.Bind(se.coord.Address(), sp.client.Name(), func(m msg.Message) { _ = se.coord.HandleMessage(m) })
	if sp.register > 0 {
		d.s.After(sp.register, func() { mustNil(se.coord.Register()) })
	}
	return se
}

// windowFPS is the session's mean playback rate since mark, over a
// measurement window of length measure.
func (se *session) windowFPS(measure time.Duration) float64 {
	return float64(se.client.Displayed-se.mark) / measure.Seconds()
}
