package scenario

import (
	"fmt"
	"time"

	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/netsim"
	"softqos/internal/obs"
	"softqos/internal/sched"
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
	// Restarts, ServerFaults and NetworkFaults count the domain manager's
	// diagnoses of the escalations: a dead server process, a starved
	// server host, a congested network.
	Restarts, ServerFaults, NetworkFaults uint64
}

// Scale builds and runs a domain-sized deployment for warmup+measure.
func Scale(cfg ScaleConfig, warmup, measure time.Duration) ScaleResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	d := newDomain(cfg.Seed)
	s := d.s
	net := netsim.New(s, obs.Kit{})

	// Shared infrastructure: repository, agent, domain manager, one
	// server host behind one core switch.
	mustNil(mgmt.DefineVideoModel(d.svc))
	mustNil(d.admin.AddPolicy(Example1Policy, videoPlayer))
	d.startAgent(d.bus.Send, obs.Kit{})
	dm := manager.NewDomainManager(DomainAddr, d.bus.Send, manager.DomainConfig{})
	d.bus.Bind(DomainAddr, "mgmt", dm.HandleMessage)

	// Size the server host so the send side is not the bottleneck (the
	// scale experiment stresses the management plane, not the server):
	// total send demand is sessions * serverCost * fps.
	totalSessions := cfg.Hosts * cfg.SessionsPerHost
	demand := float64(totalSessions) * (2.0 / 33.3)
	serverCPUs := int(demand/0.7) + 1
	serverHost := sched.NewHost(s, "server-host", obs.Kit{}, sched.WithCPUs(serverCPUs))
	net.AddNode("server-host", nil)
	// A fat core switch: the scale experiment stresses management, not
	// the network.
	sw := net.AddSwitch("sw-core", 64<<20, 8<<20)
	serverHM := d.startHostManager(ServerHMAddr, serverHost, d.bus.Send, "", manager.Liveness{}, obs.Kit{})
	dm.RegisterAppServer("VideoApplication", ServerHMAddr, "mpeg_serve")

	var sessions []*session
	var hms []*manager.HostManager
	for hIdx := 0; hIdx < cfg.Hosts; hIdx++ {
		hostName := fmt.Sprintf("client-%02d", hIdx)
		host := sched.NewHost(s, hostName, obs.Kit{})
		hmAddr := "/" + hostName + "/QoSHostManager"
		hm := d.startHostManager(hmAddr, host, d.bus.Send, DomainAddr, manager.Liveness{}, obs.Kit{})
		hms = append(hms, hm)
		for sIdx := 0; sIdx < cfg.SessionsPerHost; sIdx++ {
			sessions = append(sessions, d.startSession(sessionSpec{net: net, sw: sw, send: d.bus.Send,
				server: serverHost, client: host, node: fmt.Sprintf("%s/s%d", hostName, sIdx),
				stream: video.StreamConfig{DecodeCost: cfg.DecodeCost}, role: userRole,
				hm: hm, serverHM: serverHM,
				register: time.Duration(1+len(sessions)) * time.Millisecond}))
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

	out := ScaleResult{Sessions: len(sessions), MinFPS: 1 << 20, Events: s.Fired(), WallTime: time.Since(start),
		Restarts: dm.Restarts, ServerFaults: dm.ServerFaults, NetworkFaults: dm.NetworkFaults}
	var sum float64
	for _, se := range sessions {
		fps := se.windowFPS(measure)
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
