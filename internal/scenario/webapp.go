package scenario

import (
	"time"

	"softqos/internal/instrument"
	"softqos/internal/loadgen"
	"softqos/internal/manager"
	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/repository"
	"softqos/internal/sched"
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
	d := newDomain(seed)
	s := d.s
	host := sched.NewHost(s, "web-host", obs.Kit{})

	mustNil(d.svc.DefineApplication("WebApplication", "httpd"))
	mustNil(d.svc.DefineExecutable("httpd", map[string][]string{
		"latency_sensor": {"response_time"},
		"backlog_sensor": {"request_backlog"},
		"rate_sensor":    {"request_rate"},
	}))
	mustNil(d.admin.AddPolicy(WebPolicy, repository.PolicyMeta{
		Application: "WebApplication", Executable: "httpd"}))

	d.startAgent(d.bus.Send, obs.Kit{})
	hm := d.startHostManager("/web-host/QoSHostManager", host, d.bus.Send, "", manager.Liveness{}, obs.Kit{})

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

	coord := instrument.NewCoordinator(id, clock, d.bus.Send, AgentAddr, "/web-host/QoSHostManager")
	coord.AddSensor(latency)
	coord.AddSensor(backlog)
	coord.AddSensor(rate)
	d.bus.Bind(coord.Address(), "web-host", func(m msg.Message) { _ = coord.HandleMessage(m) })
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
