package manager

import (
	"testing"
	"time"

	"softqos/internal/msg"
	"softqos/internal/obs"
	"softqos/internal/sim"
	"softqos/internal/telemetry"
)

// fedSink captures shipped telemetry summaries with their send times.
func fedSink(s *sim.Simulator) (*[]msg.TelemetrySummary, *[]time.Duration, Send) {
	var sums []msg.TelemetrySummary
	var at []time.Duration
	send := func(to string, m msg.Message) error {
		if to != "/parent" {
			return nil
		}
		sums = append(sums, m.Body.(msg.TelemetrySummary))
		at = append(at, s.Now().Duration())
		return nil
	}
	return &sums, &at, send
}

// TestSummaryExporterPeriodicFlush: the exporter ships one summary per
// window on the injected clock, resets between windows, and skips empty
// windows entirely — an idle host costs zero telemetry traffic.
func TestSummaryExporterPeriodicFlush(t *testing.T) {
	s := sim.New(1)
	sums, at, send := fedSink(s)
	e := NewSummaryExporter("host", "/h1", "/parent", send,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) })
	load := e.Summary().Sketch("fleet.load")

	// Window 1 has data; windows 2 and 3 are idle; window 4 has data.
	s.Schedule(sim.Time(2*time.Second), func() {
		load.Observe(0.8)
		e.Summary().AddCounter("fleet.samples", 1)
	})
	s.Schedule(sim.Time(33*time.Second), func() { load.Observe(2.5) })
	s.Schedule(sim.Time(0), e.Start)
	s.RunFor(45 * time.Second)

	if len(*sums) != 2 {
		t.Fatalf("shipped %d summaries, want 2", len(*sums))
	}
	if (*at)[0] != 10*time.Second || (*at)[1] != 40*time.Second {
		t.Fatalf("flush times %v, want [10s 40s]", *at)
	}
	first := (*sums)[0]
	if first.Tier != "host" || first.Source != "/h1" || first.Seq != 1 || first.Hosts != 1 {
		t.Fatalf("first summary header wrong: %+v", first)
	}
	if len(first.Counters) != 1 || first.Counters[0] != (telemetry.NamedValue{Name: "fleet.samples", Value: 1}) ||
		len(first.Sketches) != 1 || first.Sketches[0].Sketch.Count != 1 {
		t.Fatalf("first summary payload wrong: %+v", first)
	}
	// The second shipped window contains only the second observation —
	// the reset really closed the first window.
	second := (*sums)[1]
	if second.Seq != 2 || second.Counters != nil || second.Sketches[0].Sketch.Count != 1 {
		t.Fatalf("second summary not a clean window: %+v", second)
	}
	if e.Exported != 2 || e.Skipped != 2 {
		t.Fatalf("exported=%d skipped=%d, want 2/2", e.Exported, e.Skipped)
	}
	// Validate on the wire form: what the exporter ships must pass the
	// protocol's own checks.
	for _, ts := range *sums {
		if err := msg.Validate(msg.Message{From: "/h1", Body: ts}); err != nil {
			t.Fatalf("shipped summary fails validation: %v", err)
		}
	}
}

// TestSummaryAggregatorForwardsMergedWindow: a domain-tier aggregator
// merges inbound host summaries and ships ONE summary per window
// upward, covering every host it merged — the fan-in reduction that
// keeps the region's telemetry load at the domain count.
func TestSummaryAggregatorForwardsMergedWindow(t *testing.T) {
	s := sim.New(1)
	sums, at, send := fedSink(s)
	g := NewSummaryAggregator("domain", "/d1", "/parent", send,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{})

	hostSummary := func(src string, samples float64, load ...float64) msg.TelemetrySummary {
		sk := telemetry.NewSketch()
		for _, v := range load {
			sk.Observe(v)
		}
		return msg.TelemetrySummary{
			Tier: "host", Source: src, Seq: 1, Hosts: 1,
			Counters: []telemetry.NamedValue{{Name: "fleet.samples", Value: samples}},
			Maxima:   []telemetry.NamedValue{{Name: "fleet.cpu_load_max", Value: load[0]}},
			Sketches: []telemetry.NamedSketchSnapshot{{Name: "fleet.load", Sketch: sk.Snapshot()}},
		}
	}
	s.Schedule(sim.Time(1*time.Second), func() { g.Ingest(hostSummary("/h1", 2, 0.5, 1.5)) })
	s.Schedule(sim.Time(4*time.Second), func() { g.Ingest(hostSummary("/h2", 3, 3.0, 0.2, 0.9)) })
	s.RunFor(30 * time.Second)

	if len(*sums) != 1 {
		t.Fatalf("forwarded %d summaries, want 1 merged window", len(*sums))
	}
	// Window armed at first ingest (1s) and flushed one window later.
	if (*at)[0] != 11*time.Second {
		t.Fatalf("flush at %v, want 11s", (*at)[0])
	}
	up := (*sums)[0]
	if up.Tier != "domain" || up.Source != "/d1" || up.Hosts != 2 {
		t.Fatalf("upward summary header: %+v", up)
	}
	if len(up.Counters) != 1 || up.Counters[0] != (telemetry.NamedValue{Name: "fleet.samples", Value: 5}) {
		t.Errorf("merged counters = %v, want fleet.samples 5", up.Counters)
	}
	if len(up.Maxima) != 1 || up.Maxima[0] != (telemetry.NamedValue{Name: "fleet.cpu_load_max", Value: 3}) {
		t.Errorf("merged maxima = %v, want fleet.cpu_load_max 3", up.Maxima)
	}
	if len(up.Sketches) != 1 || up.Sketches[0].Sketch.Count != 5 {
		t.Errorf("merged sketch: %+v", up.Sketches)
	}
	if g.Ingested != 2 || g.Flushes != 1 {
		t.Errorf("ingested=%d flushes=%d, want 2/1", g.Ingested, g.Flushes)
	}
	// The cumulative aggregate survives the window flush.
	if g.Total().Sketch("fleet.load").Count() != 5 {
		t.Error("window flush drained the cumulative aggregate")
	}
}

// TestSummaryAggregatorTerminal: a region-tier aggregator (parent "")
// only accumulates — it never re-ships, counts host coverage by latest
// report per source, and keeps per-child breakdowns.
func TestSummaryAggregatorTerminal(t *testing.T) {
	s := sim.New(1)
	sums, _, send := fedSink(s)
	g := NewSummaryAggregator("region", "/r", "", send,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{})

	domainSummary := func(src string, hosts uint64, samples float64) msg.TelemetrySummary {
		return msg.TelemetrySummary{
			Tier: "domain", Source: src, Seq: 1, Hosts: hosts,
			Counters: []telemetry.NamedValue{{Name: "fleet.samples", Value: samples}},
		}
	}
	s.Schedule(sim.Time(1*time.Second), func() { g.Ingest(domainSummary("/d1", 20, 100)) })
	s.Schedule(sim.Time(2*time.Second), func() { g.Ingest(domainSummary("/d2", 30, 200)) })
	// /d1 reports again: coverage uses the LATEST hosts figure, not a sum.
	s.Schedule(sim.Time(12*time.Second), func() { g.Ingest(domainSummary("/d1", 25, 50)) })
	s.RunFor(60 * time.Second)

	if len(*sums) != 0 {
		t.Fatalf("terminal aggregator shipped %d summaries upward", len(*sums))
	}
	if g.Hosts() != 55 {
		t.Errorf("hosts = %d, want 55 (latest 25 + 30)", g.Hosts())
	}
	v := g.FleetView()
	if v.Tier != "region" || v.Hosts != 55 || v.Summaries != 3 {
		t.Fatalf("fleet view header: %+v", v)
	}
	if len(v.Fleet.Counters) != 1 || v.Fleet.Counters[0].Value != 350 {
		t.Fatalf("fleet counter: %+v", v.Fleet.Counters)
	}
	// Children are name-sorted with their own cumulative aggregates.
	if len(v.Children) != 2 || v.Children[0].Name != "/d1" || v.Children[1].Name != "/d2" {
		t.Fatalf("children: %+v", v.Children)
	}
	d1 := v.Children[0]
	if d1.Hosts != 25 || d1.Summaries != 2 || d1.Summary.Counters[0].Value != 150 {
		t.Fatalf("/d1 child view: %+v", d1)
	}
}

// TestSummaryAggregatorCountersInRegistry: built with a registry, the
// aggregate flow shows up under telemetry.fed.<tier>.*.
func TestSummaryAggregatorCountersInRegistry(t *testing.T) {
	s := sim.New(1)
	_, _, send := fedSink(s)
	reg := telemetry.NewRegistry(nil)
	g := NewSummaryAggregator("domain", "/d", "/parent", send,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{Metrics: reg})
	s.Schedule(sim.Time(0), func() {
		g.Ingest(msg.TelemetrySummary{Tier: "host", Source: "/h", Seq: 1,
			Counters: []telemetry.NamedValue{{Name: "c", Value: 1}}})
	})
	s.RunFor(30 * time.Second)

	got := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["telemetry.fed.domain.summaries"] != 1 || got["telemetry.fed.domain.flushes"] != 1 {
		t.Fatalf("fed counters: %v", got)
	}
}

// TestSummaryRoundTripThroughCodec: an exporter-shipped summary
// round-trips the wire codec and merges into an aggregator
// with nothing lost — the full host→wire→domain path in miniature.
func TestSummaryRoundTripThroughCodec(t *testing.T) {
	s := sim.New(1)
	var relayed []msg.TelemetrySummary
	relay := func(to string, m msg.Message) error {
		bin, err := msg.MarshalWire(msg.WireBinary, to, m)
		if err != nil {
			return err
		}
		_, rt, err := msg.UnmarshalWire(bin)
		if err != nil {
			return err
		}
		relayed = append(relayed, rt.Body.(msg.TelemetrySummary))
		return nil
	}
	e := NewSummaryExporter("host", "/h1", "/parent", relay,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) })
	sk := e.Summary().Sketch("fleet.detect_adapt_ns")
	s.Schedule(sim.Time(0), func() {
		for i := 1; i <= 100; i++ {
			sk.ObserveDuration(time.Duration(i) * time.Millisecond)
		}
		e.Summary().AddCounter("fleet.adaptations", 100)
	})
	s.Schedule(sim.Time(0), e.Start)
	s.RunFor(15 * time.Second)

	if len(relayed) != 1 {
		t.Fatalf("relayed %d summaries, want 1", len(relayed))
	}
	g := NewSummaryAggregator("region", "/r", "", nil,
		10*time.Second, func(d time.Duration, fn func()) { s.After(d, fn) }, obs.Kit{})
	g.Ingest(relayed[0])
	merged := g.Total().Sketch("fleet.detect_adapt_ns")
	if merged.Count() != 100 || merged.Min() != float64(time.Millisecond) ||
		merged.Max() != float64(100*time.Millisecond) {
		t.Fatalf("round-tripped sketch: count=%d min=%v max=%v",
			merged.Count(), merged.Min(), merged.Max())
	}
	if p50, ok := merged.Quantile(0.5); !ok || p50 <= 0 {
		t.Fatalf("round-tripped sketch has no quantiles (p50=%v)", p50)
	}
}

// TestSummaryExporterFlushAllocations pins the per-window cost of a host
// exporter: filling a window of 10 samples (3 counters, 1 maximum, 2
// sketches) allocates nothing once its names are known, and the flush
// allocates only the shipped message — its exact-size lists, one bucket
// array per live sketch and the boxed body.
func TestSummaryExporterFlushAllocations(t *testing.T) {
	send := func(string, msg.Message) error { return nil }
	e := NewSummaryExporter("host", "/h1", "/parent", send, 0, func(time.Duration, func()) {})
	sum := e.Summary()
	load, lat := sum.Sketch("fleet.load"), sum.Sketch("fleet.detect_adapt_ns")
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10; i++ {
			v := 0.4 + float64(i)*0.3
			load.Observe(v)
			sum.SetMax("fleet.cpu_load_max", v)
			sum.AddCounter("fleet.samples", 1)
			if i%5 == 0 {
				sum.AddCounter("fleet.alarms_raised", 1)
				sum.AddCounter("fleet.adaptations", 1)
				lat.ObserveDuration(time.Duration(i+1) * time.Millisecond)
			}
		}
		if err := e.FlushNow(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("fill + FlushNow allocated %v times per window, want <= 7", allocs)
	}
	t.Logf("fill + FlushNow: %v allocations per window", allocs)
}
