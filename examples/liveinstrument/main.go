// Liveinstrument: the live (wall-clock) mode. A real Go "player" loop is
// instrumented with the Example 1 sensors; the coordinator registers with
// a policy agent over TCP, receives the compiled policy, and reports
// violations to a collector when the player is artificially stalled —
// the configuration in which the paper measured its instrumentation
// overheads.
//
//	go run ./examples/liveinstrument
package main

import (
	"fmt"
	"log"
	"time"

	"softqos"
)

func main() {
	// Repository with the video application model and the Example 1
	// policy.
	dir := softqos.NewDirectory()
	svc := softqos.NewRepositoryService(dir)
	check(svc.DefineApplication("VideoApplication", "mpeg_play"))
	check(svc.DefineExecutable("mpeg_play", map[string][]string{
		"fps_sensor":    {"frame_rate"},
		"jitter_sensor": {"jitter_rate"},
		"buffer_sensor": {"buffer_size"},
	}))
	check(softqos.NewAdmin(svc).AddPolicy(softqos.Example1Policy, softqos.PolicyMeta{
		Application: "VideoApplication", Executable: "mpeg_play"}))

	// Management plane: policy agent + violation collector on loopback.
	agent, err := softqos.ServeLiveAgent("127.0.0.1:0", svc)
	check(err)
	defer agent.Close()
	coll, err := softqos.NewLiveCollector("127.0.0.1:0")
	check(err)
	defer coll.Close()

	// The instrumented process.
	coord := softqos.NewLiveCoordinator(softqos.Identity{
		Host: "live-host", PID: 4242, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer",
	}, agent.Addr(), coll.Addr(), softqos.Kit{})
	defer coord.Close()
	clock := coord.WallClock()
	fps := softqos.NewRateSensor("fps_sensor", "frame_rate", clock, 250*time.Millisecond)
	jit := softqos.NewJitterSensor("jitter_sensor", "jitter_rate", clock, 8*time.Millisecond)
	buf := softqos.NewValueSensor("buffer_sensor", "buffer_size", nil)
	coord.AddSensor(fps)
	coord.AddSensor(jit)
	coord.AddSensor(buf)
	coord.SetNotifyInterval(100 * time.Millisecond)

	start := time.Now()
	check(coord.Register())
	fmt.Printf("registered with policy agent in %v; policies: %v\n",
		time.Since(start).Round(time.Microsecond), coord.Policies())

	// A "player" rendering 125 fps (8 ms frames) — comfortably above the
	// 25±2 lower bound — then stalling to ~10 fps.
	buf.Set(20) // pretend frames are queued: the fault is local
	display := func(period time.Duration, n int) {
		for i := 0; i < n; i++ {
			fps.Tick()
			jit.Tick()
			time.Sleep(period)
		}
	}
	fmt.Println("playing at ~125 fps for 1s ...")
	display(8*time.Millisecond, 125)
	fmt.Printf("  violations so far: %d (overshoots %d)\n", coll.Violations(), coll.Overshoots())

	fmt.Println("stalling to ~10 fps for 1s ...")
	display(100*time.Millisecond, 10)
	time.Sleep(50 * time.Millisecond) // let the last report arrive
	fmt.Printf("  violations reported to the live collector: %d\n", coll.Violations())
	last := coll.Last()
	fmt.Printf("  last report: policy=%s frame_rate=%.1f buffer_size=%.0f\n",
		last.Policy, last.Readings["frame_rate"], last.Readings["buffer_size"])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
