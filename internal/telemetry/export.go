package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// CounterValue, GaugeValue and HistogramValue are one exported metric
// each, name-sorted inside a Snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

type GaugeValue struct {
	Name  string
	Value float64
}

type HistogramValue struct {
	Name  string
	Count uint64
	Min   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

// Snapshot is a point-in-time export of every metric in a registry. For
// a deterministic simulation it is byte-identical across same-seed runs
// once rendered with WriteText or WriteCSV.
type Snapshot struct {
	At         time.Duration
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot exports every registered metric, evaluating GaugeFunc pulls
// at the current clock instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	snap := Snapshot{At: r.clock()}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		gaugeFns[n] = fn
	}
	sketches := make(map[string]*Sketch, len(r.sketches))
	for n, s := range r.sketches {
		sketches[n] = s
	}
	r.mu.Unlock()

	for n, c := range counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: n, Value: c.Value()})
	}
	for n, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: n, Value: g.Value()})
	}
	for n, fn := range gaugeFns {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: n, Value: fn()})
	}
	for n, s := range sketches {
		p50, p95, p99 := s.Quantiles()
		snap.Histograms = append(snap.Histograms, HistogramValue{
			Name: n, Count: s.Count(), Min: s.Min(), Mean: s.Mean(),
			P50: p50, P95: p95, P99: p99, Max: s.Max(),
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteText renders the snapshot as an aligned, name-sorted report.
func (s Snapshot) WriteText(w io.Writer) error {
	width := 24
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "# telemetry snapshot at %v\n", s.At); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "# counters\n")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "%-*s %d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "# gauges\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%-*s %s\n", width, g.Name, fmtF(g.Value))
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "# histograms\n")
		for _, h := range s.Histograms {
			_, err := fmt.Fprintf(w, "%-*s count=%d min=%s mean=%s p50=%s p95=%s p99=%s max=%s\n",
				width, h.Name, h.Count, fmtF(h.Min), fmtF(h.Mean),
				fmtF(h.P50), fmtF(h.P95), fmtF(h.P99), fmtF(h.Max))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTraceTable renders violation traces as a human-readable table:
// one header row per trace (start, time-to-recovery or "open", span
// count) followed by the indented span list.
func WriteTraceTable(w io.Writer, traces []*Trace) error {
	recovered, abandoned, open := 0, 0, 0
	for _, t := range traces {
		switch {
		case t.Recovered:
			recovered++
		case t.Abandoned:
			abandoned++
		default:
			open++
		}
	}
	// The abandoned column only appears when episodes were abandoned —
	// fault-injection runs — so fault-free output (and its goldens) is
	// unchanged.
	header := fmt.Sprintf("violation traces: %d recovered, %d open", recovered, open)
	if abandoned > 0 {
		header = fmt.Sprintf("violation traces: %d recovered, %d abandoned, %d open",
			recovered, abandoned, open)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i, t := range traces {
		ttr := "open"
		if t.Abandoned {
			ttr = "abandoned"
		}
		if d, ok := t.TimeToRecovery(); ok {
			ttr = d.String()
		}
		if _, err := fmt.Fprintf(w, "#%d %s policy=%s start=%v ttr=%s spans=%d\n",
			i+1, t.Subject, t.Policy, t.Start, ttr, len(t.Spans)); err != nil {
			return err
		}
		for _, sp := range t.Spans {
			line := fmt.Sprintf("   +%-12v %s", (sp.At - t.Start).String(), sp.Stage)
			// Tier depth appears only on spans from hierarchical managers;
			// flat-topology spans (tier 0) render exactly as before.
			if sp.Tier > 0 {
				line += fmt.Sprintf(" [tier %d]", sp.Tier)
			}
			if sp.Detail != "" {
				line += "  " + sp.Detail
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
