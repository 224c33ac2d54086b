package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTimelineRecordsAndRolls(t *testing.T) {
	var now time.Duration
	reg := NewRegistry(func() time.Duration { return now })
	c := reg.Counter("a.count")
	g := reg.Gauge("a.gauge")
	h := reg.Sketch("a.hist")

	tl := NewTimeline(reg)
	const n = DefaultTimelineCapacity + 2
	for i := 1; i <= n; i++ {
		now = time.Duration(i) * time.Second
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i))
		tl.Sample()
	}
	if got := tl.Samples(); got != n {
		t.Fatalf("samples = %d, want %d", got, n)
	}

	series := tl.Series()
	// Name-sorted; the last is the timeline's own eviction counter.
	wantNames := []string{"a.count", "a.gauge", "a.hist.p50", "a.hist.p95", "telemetry.timeline.evicted"}
	if len(series) != len(wantNames) {
		t.Fatalf("series = %d, want %d", len(series), len(wantNames))
	}
	for i, s := range series {
		if s.Name != wantNames[i] {
			t.Errorf("series[%d] = %q, want %q", i, s.Name, wantNames[i])
		}
		if len(s.Points) != DefaultTimelineCapacity {
			t.Errorf("%s retained %d points, want capacity %d", s.Name, len(s.Points), DefaultTimelineCapacity)
		}
	}

	// The ring keeps the most recent samples in chronological order.
	cnt, ok := tl.SeriesByName("a.count")
	if !ok {
		t.Fatal("a.count missing")
	}
	for i, p := range cnt.Points {
		wantAt := time.Duration(i+3) * time.Second
		if p.At != wantAt || p.V != float64(i+3) {
			t.Errorf("point %d = {%v %v}, want {%v %d}", i, p.At, p.V, wantAt, i+3)
		}
	}
}

func TestTimelineDumpJSON(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("x").Add(3)
	tl := NewTimeline(reg)
	tl.Sample()

	var buf bytes.Buffer
	if err := tl.Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d TimelineDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if d.Samples != 1 || d.Capacity != DefaultTimelineCapacity || len(d.Series) != 2 || d.Series[0].Name != "telemetry.timeline.evicted" || d.Series[1].Name != "x" {
		t.Errorf("dump = %+v", d)
	}

	// A nil timeline still dumps a valid, empty document.
	buf.Reset()
	var nilTL *Timeline
	if err := nilTL.Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil dump invalid: %v", err)
	}
	if len(d.Series) != 0 {
		t.Errorf("nil dump has series: %+v", d.Series)
	}
}

// TestTimelineConcurrent exercises sampling against concurrent reads
// under -race (the live-mode usage: a ticker goroutine samples while
// HTTP scrapes dump).
func TestTimelineConcurrent(t *testing.T) {
	reg := NewRegistry(nil)
	c := reg.Counter("n")
	tl := NewTimeline(reg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				tl.Sample()
				_ = tl.Dump()
			}
		}()
	}
	wg.Wait()
	if got := tl.Samples(); got != 800 {
		t.Fatalf("samples = %d, want 800", got)
	}
}
