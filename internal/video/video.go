// Package video models the paper's managed multimedia application: a
// video server streaming frames across the network to a client that
// decodes and displays them — the software MPEG player of the prototype's
// evaluation. The client's display path carries the instrumentation
// probes (frame-rate, jitter) and its socket buffer is what the
// buffer-length sensor of Example 5 observes.
package video

import (
	"time"

	"softqos/internal/netsim"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

// FrameType is an MPEG picture type. Real MPEG streams interleave
// intra-coded (I), predicted (P) and bidirectional (B) pictures with very
// different sizes and decode costs; the prototype's player [17] decoded
// such streams.
type FrameType byte

const (
	// IFrame is an intra-coded picture: largest, cheapest reference.
	IFrame FrameType = 'I'
	// PFrame is a forward-predicted picture.
	PFrame FrameType = 'P'
	// BFrame is a bidirectionally predicted picture: smallest, and the
	// most expensive to reconstruct relative to its size.
	BFrame FrameType = 'B'
)

// Frame is one video frame in flight.
type Frame struct {
	Seq    int
	Type   FrameType
	SentAt sim.Time
}

// gopPattern is the classic 9-picture MPEG group of pictures.
var gopPattern = []FrameType{IFrame, BFrame, BFrame, PFrame, BFrame, BFrame, PFrame, BFrame, BFrame}

// typeFor returns the picture type at a sequence number under the GOP
// pattern.
func typeFor(seq int) FrameType {
	return gopPattern[(seq-1)%len(gopPattern)]
}

// Size and decode-cost multipliers by picture type, scaled so the GOP
// average is ~1.0 (I pictures are ~3x a P in bits; B pictures cheapest in
// bits but not in work).
var (
	sizeScale   = map[FrameType]float64{IFrame: 2.4, PFrame: 1.2, BFrame: 0.66}
	decodeScale = map[FrameType]float64{IFrame: 0.8, PFrame: 1.0, BFrame: 1.07}
)

// StreamConfig describes a stream and the client's processing costs.
type StreamConfig struct {
	// FPS is the nominal frame rate of the stream (default 30).
	FPS int
	// FrameBytes is the network size of one frame (default 8 KiB).
	FrameBytes int
	// DecodeCost is the client CPU time to decode+display one frame.
	// The default of 34 ms models the prototype's software MPEG decoder,
	// which was CPU-saturated at full frame rate (one frame costs slightly
	// more than the 33.3 ms frame budget): the player never sleeps, so it
	// competes as a CPU-bound process and collapses under load unless the
	// framework raises its priority.
	DecodeCost time.Duration
	// ServerCost is the server CPU time to read+packetize one frame
	// (default 2 ms).
	ServerCost time.Duration
	// BufferFrames is the client socket buffer capacity in frames
	// (default 30 ≈ one second of video).
	BufferFrames int
	// GOP enables the MPEG group-of-pictures model: per-frame sizes and
	// decode costs vary by picture type (I/P/B) around the configured
	// averages, as in a real MPEG stream.
	GOP bool
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.FrameBytes <= 0 {
		c.FrameBytes = 8 << 10
	}
	if c.DecodeCost <= 0 {
		c.DecodeCost = 34 * time.Millisecond
	}
	if c.ServerCost <= 0 {
		c.ServerCost = 2 * time.Millisecond
	}
	if c.BufferFrames <= 0 {
		c.BufferFrames = 30
	}
	return c
}

// Interval returns the nominal inter-frame interval (of the defaulted
// configuration when FPS is unset).
func (c StreamConfig) Interval() time.Duration {
	if c.FPS <= 0 {
		c = c.withDefaults()
	}
	return time.Duration(int64(time.Second) / int64(c.FPS))
}

// Server is the sending side: a process on the server host that paces
// frames onto the network.
type Server struct {
	Proc *sched.Proc
	cfg  StreamConfig
	net  *netsim.Network
	from string
	to   string

	Sent int
}

// StartServer spawns the server process on host, streaming from network
// node from to node to.
func StartServer(host *sched.Host, net *netsim.Network, from, to string, cfg StreamConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, net: net, from: from, to: to}
	interval := cfg.Interval()
	s.Proc = host.Spawn("mpeg_serve", func(p *sched.Proc) {
		var loop func()
		loop = func() {
			p.Use(cfg.ServerCost, func() {
				s.Sent++
				f := Frame{Seq: s.Sent, Type: PFrame, SentAt: host.Sim().Now()}
				size := cfg.FrameBytes
				if cfg.GOP {
					f.Type = typeFor(s.Sent)
					size = int(float64(size) * sizeScale[f.Type])
				}
				_ = net.Send(from, to, size, f)
				// Pace to the nominal rate: sleep out the remainder of the
				// frame interval. A starved server slips behind instead.
				spent := cfg.ServerCost
				rest := interval - spent
				if rest < 0 {
					rest = 0
				}
				p.Sleep(rest, loop)
			})
		}
		loop()
	})
	return s
}

// discardCost is the CPU cost of consuming a frame without decoding it
// (header parse + drop) when the stream is degraded.
const discardCost = time.Millisecond

// Client is the receiving side: the instrumented playback process.
type Client struct {
	Proc   *sched.Proc
	Socket *sched.Queue
	cfg    StreamConfig

	// OnDisplay is the probe hook invoked after each frame is decoded and
	// displayed (the paper's Example 2 probe: triggered "after the
	// application retrieves a video frame, decodes it and displays it").
	OnDisplay func(f Frame)

	// skip > 1 degrades the stream: only every skip'th frame is decoded
	// and displayed, the rest are discarded cheaply. It is the
	// application-adaptation lever of the overload experiments.
	skip int

	Displayed int
	Skipped   int
}

// SetSkip degrades (n > 1) or restores (n <= 1) the stream: with skip n
// only frames whose sequence number is divisible by n are decoded.
func (c *Client) SetSkip(n int) {
	if n < 1 {
		n = 1
	}
	c.skip = n
}

// Skip returns the current degradation factor (1 = full quality).
func (c *Client) Skip() int {
	if c.skip < 1 {
		return 1
	}
	return c.skip
}

// StartClient spawns the playback process on host and registers the
// network delivery handler for node: arriving frames land in the socket
// buffer (dropped when it overflows, like a datagram socket).
func StartClient(host *sched.Host, net *netsim.Network, node string, cfg StreamConfig) *Client {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg}
	c.Socket = sched.NewQueue(cfg.BufferFrames)
	net.SetHandler(node, func(pkt netsim.Packet) {
		if f, ok := pkt.Payload.(Frame); ok {
			c.Socket.Push(f)
		}
	})
	c.Proc = host.Spawn("mpeg_play", func(p *sched.Proc) {
		var loop func(v any)
		loop = func(v any) {
			f := v.(Frame)
			if s := c.Skip(); s > 1 && f.Seq%s != 0 {
				c.Skipped++
				p.Use(discardCost, func() { p.Recv(c.Socket, loop) })
				return
			}
			cost := cfg.DecodeCost
			if cfg.GOP {
				cost = time.Duration(float64(cost) * decodeScale[f.Type])
			}
			p.Use(cost, func() {
				c.Displayed++
				if c.OnDisplay != nil {
					c.OnDisplay(f)
				}
				p.Recv(c.Socket, loop)
			})
		}
		p.Recv(c.Socket, loop)
	})
	return c
}

// Config returns the effective stream configuration.
func (c *Client) Config() StreamConfig { return c.cfg }
