package scenario

import (
	"fmt"
	"time"

	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/netsim"
	"softqos/internal/obs"
	"softqos/internal/sched"
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

// MultiApp runs two concurrent managed playback sessions on one host for
// warmup+measure and reports the mean FPS each achieved.
func MultiApp(cfg MultiAppConfig, warmup, measure time.Duration) MultiAppResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DecodeCost <= 0 {
		cfg.DecodeCost = 25 * time.Millisecond
	}
	d := newDomain(cfg.Seed)
	net := netsim.New(d.s, obs.Kit{})
	clientHost := sched.NewHost(d.s, "client-host", obs.Kit{})
	serverHost := sched.NewHost(d.s, "server-host", obs.Kit{})

	sw := net.AddSwitch("sw", 4<<20, 512<<10)
	net.AddNode("server-host", nil)

	mustNil(mgmt.DefineVideoModel(d.svc))
	mustNil(d.admin.AddPolicy(Example1Policy, videoPlayer))
	d.startAgent(d.bus.Send, obs.Kit{})
	hm := d.startHostManager(ClientHMAddr, clientHost, d.bus.Send, "", manager.Liveness{}, obs.Kit{})
	if cfg.Differentiated {
		mustNil(hm.LoadRules(manager.DifferentiatedHostRules))
	}

	sp := sessionSpec{net: net, sw: sw, send: d.bus.Send, server: serverHost, client: clientHost,
		stream: video.StreamConfig{DecodeCost: cfg.DecodeCost}, hm: hm, register: time.Millisecond}
	sp.role, sp.node = "physician", "client-phys"
	phys := d.startSession(sp)
	sp.role, sp.node = "student", "client-stud"
	stud := d.startSession(sp)

	d.s.RunFor(warmup)
	phys.mark, stud.mark = phys.client.Displayed, stud.client.Displayed
	d.s.RunFor(measure)
	res := MultiAppResult{PhysicianFPS: phys.windowFPS(measure), StudentFPS: stud.windowFPS(measure)}
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
