package video

import (
	"testing"
	"time"

	"softqos/internal/netsim"
	"softqos/internal/obs"
	"softqos/internal/sched"
	"softqos/internal/sim"
)

// rig builds server-host -> switch -> client-host with a stream.
func rig(t *testing.T, cfg StreamConfig) (*sim.Simulator, *Server, *Client) {
	t.Helper()
	s := sim.New(1)
	serverHost := sched.NewHost(s, "server-host", obs.Kit{})
	clientHost := sched.NewHost(s, "client-host", obs.Kit{})
	net := netsim.New(s, obs.Kit{})
	net.AddNode("server-host", nil)
	net.AddNode("client-host", nil)
	sw := net.AddSwitch("sw", 2<<20, 256<<10)
	net.SetRoute("server-host", "client-host", 5*time.Millisecond, sw)
	srv := StartServer(serverHost, net, "server-host", "client-host", cfg)
	cl := StartClient(clientHost, net, "client-host", cfg)
	return s, srv, cl
}

func TestUncontendedPlaybackRate(t *testing.T) {
	s, srv, cl := rig(t, StreamConfig{DecodeCost: 10 * time.Millisecond})
	s.RunFor(60 * time.Second)
	// 30 fps stream, decode well under budget: ~1800 frames in 60s.
	if srv.Sent < 1790 || srv.Sent > 1810 {
		t.Errorf("server sent %d frames in 60s", srv.Sent)
	}
	if cl.Displayed < 1780 {
		t.Errorf("client displayed %d frames in 60s", cl.Displayed)
	}
}

func TestSaturatedDecoderLimitsRate(t *testing.T) {
	s, _, cl := rig(t, StreamConfig{DecodeCost: 34 * time.Millisecond})
	s.RunFor(60 * time.Second)
	fps := float64(cl.Displayed) / 60
	if fps < 28 || fps > 30 {
		t.Errorf("saturated decoder rate = %.2f, want ~29.4", fps)
	}
	// The buffer backlogs and overflows: drops are expected.
	if cl.Socket.Dropped() == 0 {
		t.Error("no drops despite a decoder slower than the stream")
	}
	if cl.Socket.Len() < cl.Config().BufferFrames-2 {
		t.Errorf("buffer length %d, want near capacity %d", cl.Socket.Len(), cl.Config().BufferFrames)
	}
}

func TestOnDisplayProbeSeesFrames(t *testing.T) {
	s, _, cl := rig(t, StreamConfig{})
	var seqs []int
	cl.OnDisplay = func(f Frame) { seqs = append(seqs, f.Seq) }
	s.RunFor(5 * time.Second)
	if len(seqs) == 0 {
		t.Fatal("probe never fired")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("frames displayed out of order: %v", seqs[i-1:i+1])
		}
	}
	if seqs[0] != 1 {
		t.Errorf("first displayed frame seq = %d", seqs[0])
	}
}

func TestStarvedServerSlipsBehind(t *testing.T) {
	s := sim.New(1)
	serverHost := sched.NewHost(s, "server-host", obs.Kit{})
	clientHost := sched.NewHost(s, "client-host", obs.Kit{})
	net := netsim.New(s, obs.Kit{})
	net.AddNode("server-host", nil)
	net.AddNode("client-host", nil)
	sw := net.AddSwitch("sw", 2<<20, 256<<10)
	net.SetRoute("server-host", "client-host", 5*time.Millisecond, sw)
	// Server cost above the frame budget: the server process is CPU-bound.
	cfg := StreamConfig{ServerCost: 34 * time.Millisecond, DecodeCost: 5 * time.Millisecond}
	srv := StartServer(serverHost, net, "server-host", "client-host", cfg)
	cl := StartClient(clientHost, net, "client-host", cfg)
	// Competing load on the server host.
	for i := 0; i < 4; i++ {
		serverHost.Spawn("hog", func(p *sched.Proc) {
			var loop func()
			loop = func() { p.Use(10*time.Millisecond, func() { loop() }) }
			loop()
		})
	}
	s.RunFor(60 * time.Second)
	fps := float64(cl.Displayed) / 60
	if fps > 10 {
		t.Errorf("starved server still delivered %.1f fps", fps)
	}
	if cl.Socket.Len() > 2 {
		t.Errorf("client buffer %d, want near empty when frames do not arrive", cl.Socket.Len())
	}
	_ = srv
}

func TestStreamConfigDefaults(t *testing.T) {
	c := StreamConfig{}.withDefaults()
	if c.FPS != 30 || c.FrameBytes != 8<<10 || c.BufferFrames != 30 {
		t.Errorf("defaults = %+v", c)
	}
	if c.DecodeCost != 34*time.Millisecond || c.ServerCost != 2*time.Millisecond {
		t.Errorf("cost defaults = %+v", c)
	}
	if got := (StreamConfig{}).Interval(); got != time.Second/30 {
		t.Errorf("Interval of zero config = %v", got)
	}
	if got := (StreamConfig{FPS: 25}).Interval(); got != 40*time.Millisecond {
		t.Errorf("Interval(25) = %v", got)
	}
}

func TestGOPPattern(t *testing.T) {
	// IBBPBBPBB repeating.
	want := "IBBPBBPBBIBB"
	for i := 1; i <= len(want); i++ {
		if got := typeFor(i); byte(got) != want[i-1] {
			t.Errorf("frame %d type = %c, want %c", i, got, want[i-1])
		}
	}
}

func TestGOPStreamDeliversAllTypes(t *testing.T) {
	s, _, cl := rig(t, StreamConfig{GOP: true, DecodeCost: 10 * time.Millisecond})
	counts := map[FrameType]int{}
	cl.OnDisplay = func(f Frame) { counts[f.Type]++ }
	s.RunFor(30 * time.Second)
	if counts[IFrame] == 0 || counts[PFrame] == 0 || counts[BFrame] == 0 {
		t.Fatalf("frame type counts = %v", counts)
	}
	// 1:2:6 ratio in a 9-frame GOP.
	if counts[BFrame] < 5*counts[IFrame] {
		t.Errorf("B/I ratio off: %v", counts)
	}
	// Mean throughput is unchanged by the GOP model.
	fps := float64(cl.Displayed) / 30
	if fps < 28 || fps > 30.5 {
		t.Errorf("GOP stream fps = %.2f", fps)
	}
}

func TestGOPSaturatedDecoderStillBounded(t *testing.T) {
	// The decode-cost multipliers average ~1.0 across a GOP, so the
	// saturated rate matches the CBR model within a few percent.
	s, _, cl := rig(t, StreamConfig{GOP: true, DecodeCost: 34 * time.Millisecond})
	s.RunFor(60 * time.Second)
	fps := float64(cl.Displayed) / 60
	if fps < 27 || fps > 31 {
		t.Errorf("GOP saturated fps = %.2f, want ~29.4", fps)
	}
}
