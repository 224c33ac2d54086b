package scenario

import (
	"time"

	"softqos/internal/agent"
	"softqos/internal/instrument"
	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/mgmt"
	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/sched"
	"softqos/internal/sim"
	"softqos/internal/webapp"
)

// WebPolicy is a QoS policy for the instrumented web server: smoothed
// response time under 50 ms. Note the manager needs no knowledge of HTTP
// — the same rules that fix the video player fix the web server.
const WebPolicy = `
oblig WebResponseTime {
  subject (...)/WebApplication/qosl_coordinator
  target  latency_sensor, backlog_sensor, (...)/QoSHostManager
  on      not (response_time < 50)
  do      latency_sensor->read(out response_time);
          backlog_sensor->read(out request_backlog);
          (...)/QoSHostManager->notify(response_time, request_backlog);
}
`

// WebResult summarizes a web-server scenario run.
type WebResult struct {
	MeanLatencyMs  float64 // smoothed response time at the end
	P100BacklogMax int
	Violations     uint64
	Adjustments    int
	FinalBoost     int
	Served         int
}

// WebScenario runs the instrumented web server against background CPU
// load, managed or not, and reports response-time outcomes.
func WebScenario(seed int64, load float64, managed bool, warmup, measure time.Duration) WebResult {
	s := sim.New(seed)
	bus := msg.NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
	host := sched.NewHost(s, "web-host", obs.Kit{})

	dir := repository.NewDirectory(repository.QoSSchema())
	svc := repository.NewService(repository.LocalStore{Dir: dir})
	admin := mgmt.NewAdmin(svc)
	mustNil(svc.DefineApplication("WebApplication", "httpd"))
	mustNil(svc.DefineExecutable("httpd", map[string][]string{
		"latency_sensor": {"response_time"},
		"backlog_sensor": {"request_backlog"},
		"rate_sensor":    {"request_rate"},
	}))
	mustNil(admin.AddPolicy(WebPolicy, repository.PolicyMeta{
		Application: "WebApplication", Executable: "httpd"}))

	pa := agent.New(AgentAddr, svc, bus.Send)
	bus.Bind(AgentAddr, "mgmt", func(m msg.Message) { pa.HandleMessage(m) })
	hm := manager.NewHostManager("/web-host/QoSHostManager", host, bus.Send, "", manager.Liveness{}, obs.Kit{})
	bus.Bind("/web-host/QoSHostManager", "web-host", func(m msg.Message) { hm.HandleMessage(m) })

	srv := webapp.Start(host, webapp.Config{ArrivalRate: 60, ServiceCost: 12 * time.Millisecond})
	id := msg.Identity{Host: "web-host", PID: srv.Proc.PID(),
		Executable: "httpd", Application: "WebApplication", UserRole: "admin"}
	hm.Track(srv.Proc, id)

	clock := instrument.Clock(func() time.Duration { return s.Now().Duration() })
	latency := instrument.NewValueSensorClocked("latency_sensor", "response_time", clock, nil)
	backlog := instrument.NewValueSensor("backlog_sensor", "request_backlog",
		func() float64 { return float64(srv.Backlog()) })
	rate := instrument.NewRateSensor("rate_sensor", "request_rate", clock, time.Second)
	srv.OnServed = func(webapp.Request, time.Duration) {
		rate.Tick()
	}
	// The latency probe reports the smoothed value twice a second (the
	// paper's adjustable reporting interval).
	s.Every(500*time.Millisecond, func() {
		latency.Set(srv.LatencyMillis())
		backlog.Sample()
		rate.Flush()
	})

	coord := instrument.NewCoordinator(id, clock, bus.Send, AgentAddr, "/web-host/QoSHostManager")
	coord.AddSensor(latency)
	coord.AddSensor(backlog)
	coord.AddSensor(rate)
	bus.Bind(coord.Address(), "web-host", func(m msg.Message) { _ = coord.HandleMessage(m) })
	if managed {
		s.After(time.Millisecond, func() { mustNil(coord.Register()) })
	}
	if load > 0 {
		loadgen.Offered(host, load)
	}

	s.RunFor(warmup)
	// A 3-second burst at 3x the offered rate knocks the server into
	// sustained backlog: once CPU-bound it decays to the bottom of the TS
	// range and — unmanaged — stays starved behind the background load
	// even after the burst ends (bistable receive-overload hysteresis).
	srv.SetRate(180)
	s.RunFor(3 * time.Second)
	srv.SetRate(60)
	maxBacklog := 0
	tk := s.Every(time.Second, func() {
		if b := srv.Backlog(); b > maxBacklog {
			maxBacklog = b
		}
	})
	s.RunFor(measure)
	tk.Stop()

	return WebResult{
		MeanLatencyMs:  srv.LatencyMillis(),
		P100BacklogMax: maxBacklog,
		Violations:     coord.Violations,
		Adjustments:    hm.CPU().Adjustments,
		FinalBoost:     srv.Proc.Boost(),
		Served:         srv.Served,
	}
}
