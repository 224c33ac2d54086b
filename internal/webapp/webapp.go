// Package webapp models a request/response server application — the
// Apache web server the paper reports instrumenting ("We have
// instrumented several third party applications (e.g., DOOM, Apache Web
// Server)"). It demonstrates that the framework is application-agnostic:
// the same sensors/coordinator/manager machinery that keeps a video
// stream at 25 FPS keeps a web server's response time under its bound,
// with no manager code knowing which is which.
package webapp

import (
	"time"

	"softqos/internal/sched"
	"softqos/internal/sim"
)

// Request is one inbound request.
type Request struct {
	Seq      int
	IssuedAt sim.Time
}

// Config shapes the workload and the server.
type Config struct {
	// ArrivalRate is the offered load in requests/second (default 50).
	ArrivalRate int
	// ServiceCost is the CPU time per request (default 8 ms).
	ServiceCost time.Duration
	// Backlog is the accept-queue capacity (default 128).
	Backlog int
	// LatencyAlpha smooths the reported response time (default 0.2).
	LatencyAlpha float64
}

func (c Config) withDefaults() Config {
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 50
	}
	if c.ServiceCost <= 0 {
		c.ServiceCost = 8 * time.Millisecond
	}
	if c.Backlog <= 0 {
		c.Backlog = 128
	}
	if c.LatencyAlpha <= 0 {
		c.LatencyAlpha = 0.2
	}
	return c
}

// Server is the instrumented web server process plus its workload
// generator.
type Server struct {
	Proc  *sched.Proc
	Queue *sched.Queue

	// OnServed is the probe hook invoked after each request completes
	// with its total latency (queueing + service).
	OnServed func(req Request, latency time.Duration)

	Served    int
	ewma      time.Duration
	haveFirst bool

	gen  *sim.Ticker
	seq  int
	host *sched.Host
}

// startGenerator (re)arms the request ticker at rate requests/second.
func (s *Server) startGenerator(rate int) {
	if s.gen != nil {
		s.gen.Stop()
	}
	simr := s.host.Sim()
	interval := time.Duration(int64(time.Second) / int64(rate))
	s.gen = simr.Every(interval, func() {
		s.seq++
		s.Queue.Push(Request{Seq: s.seq, IssuedAt: simr.Now()})
	})
}

// SetRate changes the offered load at run time (burst injection).
func (s *Server) SetRate(rate int) {
	if rate > 0 {
		s.startGenerator(rate)
	}
}

// Start spawns the server process on host and begins issuing requests at
// the configured arrival rate.
func Start(host *sched.Host, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{}
	s.Queue = sched.NewQueue(cfg.Backlog)
	simr := host.Sim()

	s.host = host
	s.startGenerator(cfg.ArrivalRate)

	s.Proc = host.Spawn("httpd", func(p *sched.Proc) {
		var loop func(v any)
		loop = func(v any) {
			req := v.(Request)
			p.Use(cfg.ServiceCost, func() {
				s.Served++
				lat := (simr.Now() - req.IssuedAt).Duration()
				if s.haveFirst {
					a := cfg.LatencyAlpha
					s.ewma = time.Duration(a*float64(lat) + (1-a)*float64(s.ewma))
				} else {
					s.ewma = lat
					s.haveFirst = true
				}
				if s.OnServed != nil {
					s.OnServed(req, lat)
				}
				p.Recv(s.Queue, loop)
			})
		}
		p.Recv(s.Queue, loop)
	})
	return s
}

// Latency returns the smoothed response time.
func (s *Server) Latency() time.Duration { return s.ewma }

// LatencyMillis returns the smoothed response time in milliseconds, the
// unit the response_time attribute uses.
func (s *Server) LatencyMillis() float64 {
	return float64(s.ewma) / float64(time.Millisecond)
}

// Backlog returns the current accept-queue depth.
func (s *Server) Backlog() int { return s.Queue.Len() }

// StopLoad halts the request generator (tests).
func (s *Server) StopLoad() { s.gen.Stop() }
