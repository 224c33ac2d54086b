package msg

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// benchMessages is one message of every management type with realistic
// field sizes, used by the codec and transport benchmarks. The names key
// the per-type sub-benchmarks, so `make bench-diff` can track each wire
// type's trajectory independently.
func benchMessages() []struct {
	name string
	m    Message
} {
	id := Identity{Host: "client-host", PID: 4321, Executable: "mpeg_play",
		Application: "VideoApplication", UserRole: "viewer"}
	return []struct {
		name string
		m    Message
	}{
		{"register", Message{From: "/client-host/app/mpeg_play/4321", Body: Register{
			ID: id, Sensors: []string{"fps_sensor", "jitter_sensor", "buffer_sensor"}}}},
		{"policyset", Message{From: "/mgmt/PolicyAgent", Body: PolicySet{ID: id, Policies: []PolicySpec{{
			Name:       "NotifyQoSViolation",
			Connective: "and",
			Conditions: []CondSpec{
				{Attribute: "frame_rate", Sensor: "fps_sensor", Op: ">=", Value: 24},
				{Attribute: "jitter_rate", Sensor: "jitter_sensor", Op: "<", Value: 0.5},
			},
			Actions: []ActionSpec{
				{Target: "fps_sensor", Op: "read", Args: []string{"frame_rate"}},
				{Target: "/client-host/QoSHostManager", Op: "notify", Args: []string{"frame_rate", "jitter_rate"}},
			},
		}}}}},
		{"violation", Message{From: "/client-host/app/mpeg_play/4321", Body: Violation{
			ID: id, Policy: "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 14.5, "jitter_rate": 0.42, "buffer_size": 12}}}},
		{"query", Message{From: "/mgmt/QoSDomainManager", Body: Query{
			From: "/mgmt/QoSDomainManager", Keys: []string{"cpu_load", "mem_usage", "proc_cpu:4321"}, Ref: "q17"}}},
		{"report", Message{From: "/server-host/QoSHostManager", Body: Report{
			Host: "server-host", Values: map[string]float64{"cpu_load": 3.7, "mem_usage": 0.61, "proc_cpu:4321": 0.22}, Ref: "q17"}}},
		{"alarm", Message{From: "/client-host/QoSHostManager", Body: Alarm{
			ID: id, Policy: "NotifyQoSViolation", Suspect: "remote",
			Readings: map[string]float64{"frame_rate": 14.5, "buffer_size": 0}}}},
		{"directive", Message{From: "/mgmt/QoSDomainManager", Body: Directive{
			From: "/mgmt/QoSDomainManager", Action: "boost_cpu", Target: "mpeg_serv", Amount: 5}}},
		{"ack", Message{From: "/server-host/QoSHostManager", Body: Ack{Ref: "boost_cpu", OK: true}}},
		{"nack", Message{From: "/mgmt/PolicyAgent", Body: Nack{ID: id, Ref: "register", Reason: "repository unavailable"}}},
		{"heartbeat", Message{From: "/client-host/app/mpeg_play/4321", Body: Heartbeat{ID: id, Seq: 93}}},
	}
}

// benchSummary is a realistic host telemetry summary: a handful of
// counters and maxima plus two sketches with a few dozen live buckets —
// roughly what one host ships per flush window in a federated fleet.
func benchSummary() Message {
	sk := telemetry.NewSketch()
	lat := telemetry.NewSketch()
	for i := 0; i < 200; i++ {
		sk.Observe(0.5 + float64(i%37)*0.21)
		lat.Observe(float64(2_000_000 + i*40_000))
	}
	return Message{From: "/h042/QoSHostManager", Body: TelemetrySummary{
		Tier: "host", Source: "/h042/QoSHostManager", Seq: 73, Hosts: 1,
		Counters: []telemetry.NamedValue{
			{Name: "fleet.adaptations", Value: 2}, {Name: "fleet.alarms_raised", Value: 3},
			{Name: "fleet.samples", Value: 200}},
		Maxima: []telemetry.NamedValue{{Name: "fleet.cpu_load_max", Value: 8.4}},
		Sketches: []telemetry.NamedSketchSnapshot{
			{Name: "fleet.load", Sketch: sk.Snapshot()},
			{Name: "fleet.detect_adapt_ns", Sketch: lat.Snapshot()},
		}}}
}

// The sub-benchmark names below keep the "binary/" prefix they had when
// a JSON wire was measured beside it, so the BENCH_<n>.json trajectory of
// each stays one unbroken series.

// BenchmarkSummaryEncode measures the telemetry-summary wire cost — the
// per-host per-window overhead the federated collection plane adds to
// the uplink.
func BenchmarkSummaryEncode(b *testing.B) {
	m := benchSummary()
	data, err := MarshalWire(WireBinary, RegionAddrForBench, m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			f := getFrameBuf()
			if _, err := f.encode(RegionAddrForBench, m); err != nil {
				b.Fatal(err)
			}
			putFrameBuf(f)
		}
	})
	b.Run("binary/unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := UnmarshalWire(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// RegionAddrForBench mirrors scenario.RegionAddr without importing it
// (internal/scenario imports msg; the reverse would cycle).
const RegionAddrForBench = "/mgmt/QoSRegionManager"

// BenchmarkCodecMarshal measures frame encoding per message type (the
// sender-side hot path of every transport).
func BenchmarkCodecMarshal(b *testing.B) {
	for _, tc := range benchMessages() {
		b.Run("binary/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := getFrameBuf()
				if _, err := f.encode("/client-host/QoSHostManager", tc.m); err != nil {
					b.Fatal(err)
				}
				putFrameBuf(f)
			}
		})
	}
}

// BenchmarkCodecUnmarshal measures frame decoding per message type the
// way a connection's read loop does it (the receiver-side hot path): the
// payload of a frame already framed, with the connection's intern table.
func BenchmarkCodecUnmarshal(b *testing.B) {
	for _, tc := range benchMessages() {
		data, err := MarshalWire(WireBinary, "/client-host/QoSHostManager", tc.m)
		if err != nil {
			b.Fatal(err)
		}
		_, used := binary.Uvarint(data[2:])
		payload := data[2+used:]
		b.Run("binary/"+tc.name, func(b *testing.B) {
			var tab internTable
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := unmarshalBinaryPayload(payload, &tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecRoundTrip is the named hot-path gate benchmark: one
// violation (the most common hot-path message) encoded and decoded.
// make bench-diff fails the build if its allocs/op regress.
func BenchmarkCodecRoundTrip(b *testing.B) {
	var viol Message
	for _, tc := range benchMessages() {
		if tc.name == "violation" {
			viol = tc.m
		}
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := getFrameBuf()
			data, err := f.encode("/client-host/QoSHostManager", viol)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := UnmarshalWire(data); err != nil {
				b.Fatal(err)
			}
			putFrameBuf(f)
		}
	})
}

// BenchmarkBusSend measures the sim transport's per-message cost with
// metrics (and therefore byte accounting) attached — the configuration
// every scenario run uses.
func BenchmarkBusSend(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		s := sim.New(1)
		bus := NewBus(s, 100*time.Microsecond, 2*time.Millisecond)
		reg := telemetry.NewRegistry(func() time.Duration { return 0 })
		bus.SetMetrics(reg)
		bus.Bind("/mgr", "h", func(Message) {})
		bus.Bind("/coord", "h", func(Message) {})
		m := Message{From: "/coord", Body: Violation{
			ID:       Identity{Host: "h", PID: 7, Executable: "mpeg_play"},
			Policy:   "NotifyQoSViolation",
			Readings: map[string]float64{"frame_rate": 14.5, "jitter_rate": 0.42, "buffer_size": 12}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bus.Send("/mgr", m); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 0 {
				s.Run()
			}
		}
		s.Run()
	})
}

// BenchmarkNetRoundTrip measures a full TCP request/reply between two
// NetTransport nodes: a violation out, an ack back. This is the live
// control loop's transport floor.
func BenchmarkNetRoundTrip(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		mgr, err := NewNetTransport("mgr-host", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer mgr.Close()
		coord, err := NewNetTransport("coord-host", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer coord.Close()

		acks := make(chan struct{}, 1)
		mgr.Bind("/h/QoSHostManager", "mgr-host", func(m Message) {
			_ = mgr.Send(m.From, Message{From: "/h/QoSHostManager", Body: Ack{Ref: "v", OK: true}})
		})
		coord.Bind("/h/app/x/7", "coord-host", func(m Message) { acks <- struct{}{} })
		coord.Route("/h/QoSHostManager", mgr.Addr())
		mgr.Route("/h/app/x/7", coord.Addr())
		viol := Message{From: "/h/app/x/7", Body: Violation{
			ID:       Identity{Host: "h", PID: 7, Executable: "x"},
			Policy:   "P",
			Readings: map[string]float64{"frame_rate": 14.5, "jitter_rate": 0.42}}}
		// Prime the connections outside the timer.
		if err := coord.Send("/h/QoSHostManager", viol); err != nil {
			b.Fatal(err)
		}
		<-acks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := coord.Send("/h/QoSHostManager", viol); err != nil {
				b.Fatal(err)
			}
			<-acks
		}
	})
}

// BenchmarkValidate pins the per-message validation cost paid on every
// transport send and receive.
func BenchmarkValidate(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Validate(msgs[i%len(msgs)].m); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt imported if cases change
