// Soft-QoS compliance: the paper's requirements are *soft* — an
// expectation like "25±2 frames/sec" is supposed to hold most of the
// time, not always — so the health of the control loop is a statistical
// property over time windows, not a sequence of alarms. This file turns
// the tracer's violation episodes into that statistic: per-policy
// sliding-window compliance ratios, violation-minutes, multi-window burn
// rates (the SRE fast/slow pattern), and a detect→locate→adapt latency
// decomposition mined from trace spans.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Default SLO parameters. The windows follow the SRE multi-window
// burn-rate pattern scaled to this system's episode durations: the fast
// window catches an ongoing incident, the slow window catches sustained
// low-grade erosion of the error budget.
const (
	DefaultSLOTarget  = 0.95
	DefaultFastWindow = time.Minute
	DefaultSlowWindow = 10 * time.Minute
)

// SLOTarget declares the compliance objective for one policy: the
// fraction of time its expectation must hold, judged over two windows.
type SLOTarget struct {
	// Policy is the policy name violation traces carry (e.g.
	// "NotifyQoSViolation").
	Policy string `json:"policy"`
	// Objective is the human-readable expectation the policy encodes
	// (e.g. "frame_rate = 25(+2)(-2) and jitter_rate < 1.25").
	Objective string `json:"objective,omitempty"`
	// Target is the required compliance ratio in (0,1); 0 means
	// DefaultSLOTarget.
	Target float64 `json:"target"`
	// FastWindow and SlowWindow are the burn-rate windows; 0 means the
	// defaults.
	FastWindow time.Duration `json:"fast_window_ns"`
	SlowWindow time.Duration `json:"slow_window_ns"`
}

func (t SLOTarget) withDefaults() SLOTarget {
	if t.Target <= 0 || t.Target >= 1 {
		t.Target = DefaultSLOTarget
	}
	if t.FastWindow <= 0 {
		t.FastWindow = DefaultFastWindow
	}
	if t.SlowWindow <= 0 {
		t.SlowWindow = DefaultSlowWindow
	}
	return t
}

// interval is one span of violated time.
type interval struct{ from, to time.Duration }

// violatedIntervals collects, per policy, the merged union of time
// every subject spent in violation. Open episodes extend to now.
func violatedIntervals(traces []*Trace, now time.Duration) map[string][]interval {
	raw := make(map[string][]interval)
	for _, t := range traces {
		end := t.End
		if !t.Recovered && !t.Abandoned {
			end = now
		}
		if end < t.Start {
			end = t.Start
		}
		raw[t.Policy] = append(raw[t.Policy], interval{t.Start, end})
	}
	for p, ivs := range raw {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].from != ivs[j].from {
				return ivs[i].from < ivs[j].from
			}
			return ivs[i].to < ivs[j].to
		})
		merged := ivs[:0]
		for _, iv := range ivs {
			if n := len(merged); n > 0 && iv.from <= merged[n-1].to {
				if iv.to > merged[n-1].to {
					merged[n-1].to = iv.to
				}
				continue
			}
			merged = append(merged, iv)
		}
		raw[p] = merged
	}
	return raw
}

// violatedWithin sums the violated time inside [from, to].
func violatedWithin(ivs []interval, from, to time.Duration) time.Duration {
	var total time.Duration
	for _, iv := range ivs {
		lo, hi := iv.from, iv.to
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// complianceOver computes the compliance ratio over the window of length
// w ending at now. A window reaching before t=0 is clipped to the run so
// early scrapes are not diluted by time that never happened. An empty
// window (now == 0) is vacuously compliant.
func complianceOver(ivs []interval, now, w time.Duration) float64 {
	from := now - w
	if from < 0 {
		from = 0
	}
	width := now - from
	if width <= 0 {
		return 1
	}
	return 1 - float64(violatedWithin(ivs, from, now))/float64(width)
}

// StageStats summarizes one control-loop stage's latency distribution in
// milliseconds.
type StageStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	Max   float64 `json:"max_ms"`
}

func stageStats(h *Sketch) StageStats {
	p50, p95, _ := h.Quantiles()
	return StageStats{Count: h.Count(), P50: p50, P95: p95, Max: h.Max()}
}

// PolicyCompliance is one policy's soft-QoS health report.
type PolicyCompliance struct {
	Policy    string  `json:"policy"`
	Objective string  `json:"objective,omitempty"`
	Target    float64 `json:"target"`

	// Episode accounting, from the violation traces.
	Episodes  int `json:"episodes"`
	Recovered int `json:"recovered"`
	Abandoned int `json:"abandoned"`
	Open      int `json:"open"`

	// ViolationTime is the merged union of violated time across subjects
	// over the whole run; ViolationMinutes is the same in minutes (the
	// operator-facing unit).
	ViolationTime    time.Duration `json:"violation_time_ns"`
	ViolationMinutes float64       `json:"violation_minutes"`
	// MeanTTRMs is the mean time-to-recovery of recovered episodes.
	MeanTTRMs float64 `json:"mean_ttr_ms"`

	// Compliance is the ratio over the whole run; FastCompliance and
	// SlowCompliance over the trailing windows.
	Compliance     float64       `json:"compliance"`
	FastWindow     time.Duration `json:"fast_window_ns"`
	SlowWindow     time.Duration `json:"slow_window_ns"`
	FastCompliance float64       `json:"fast_compliance"`
	SlowCompliance float64       `json:"slow_compliance"`
	// Burn rates: error budget consumption speed per window —
	// (1 - compliance) / (1 - target). 1.0 burns the budget exactly at
	// the rate the target allows; alerting practice pages on fast burn
	// over several and tickets on slow burn over ~1.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// Breaching reports whether either window currently burns error budget
// faster than the target allows.
func (pc PolicyCompliance) Breaching() bool {
	return pc.FastBurn > 1 || pc.SlowBurn > 1
}

// ComputeCompliance derives per-policy compliance from violation traces
// at clock instant now. Policies named in targets are always reported
// (even with no episodes — fully compliant); policies that produced
// traces but have no declared target get a default one. The result is
// policy-name-sorted and, over a deterministic simulation, a pure
// function of (traces, now, targets).
func ComputeCompliance(traces []*Trace, now time.Duration, targets []SLOTarget) []PolicyCompliance {
	byPolicy := make(map[string]SLOTarget, len(targets))
	order := make([]string, 0, len(targets))
	for _, t := range targets {
		if _, dup := byPolicy[t.Policy]; !dup {
			order = append(order, t.Policy)
		}
		byPolicy[t.Policy] = t.withDefaults()
	}
	for _, tr := range traces {
		if _, ok := byPolicy[tr.Policy]; !ok {
			byPolicy[tr.Policy] = SLOTarget{Policy: tr.Policy}.withDefaults()
			order = append(order, tr.Policy)
		}
	}
	sort.Strings(order)

	ivs := violatedIntervals(traces, now)
	out := make([]PolicyCompliance, 0, len(order))
	for _, name := range order {
		t := byPolicy[name]
		pc := PolicyCompliance{
			Policy:     name,
			Objective:  t.Objective,
			Target:     t.Target,
			FastWindow: t.FastWindow,
			SlowWindow: t.SlowWindow,
		}
		var ttrSum time.Duration
		for _, tr := range traces {
			if tr.Policy != name {
				continue
			}
			pc.Episodes++
			switch {
			case tr.Recovered:
				pc.Recovered++
				ttrSum += tr.End - tr.Start
			case tr.Abandoned:
				pc.Abandoned++
			default:
				pc.Open++
			}
		}
		if pc.Recovered > 0 {
			pc.MeanTTRMs = float64(ttrSum) / float64(pc.Recovered) / 1e6
		}
		pIvs := ivs[name]
		pc.ViolationTime = violatedWithin(pIvs, 0, now)
		pc.ViolationMinutes = pc.ViolationTime.Minutes()
		pc.Compliance = complianceOver(pIvs, now, now)
		pc.FastCompliance = complianceOver(pIvs, now, t.FastWindow)
		pc.SlowCompliance = complianceOver(pIvs, now, t.SlowWindow)
		budget := 1 - t.Target
		pc.FastBurn = (1 - pc.FastCompliance) / budget
		pc.SlowBurn = (1 - pc.SlowCompliance) / budget
		out = append(out, pc)
	}
	return out
}

// Loop-stage histogram names. The values are milliseconds.
const (
	MetricLoopDetectMs = "loop.detect_ms"
	MetricLoopLocateMs = "loop.locate_ms"
	MetricLoopAdaptMs  = "loop.adapt_ms"
)

// LoopStageDurations decomposes one trace's control loop:
//
//	detect  violation observed → violation reported (first notify span)
//	locate  report → diagnosis locating the fault (first diagnose or
//	        locate span)
//	adapt   diagnosis → corrective action (first adapt or directive span)
//
// Each duration's ok is false when the trace never reached the stage.
func LoopStageDurations(t *Trace) (detect, locate, adapt time.Duration, okDetect, okLocate, okAdapt bool) {
	first := func(stages ...string) (time.Duration, bool) {
		for _, sp := range t.Spans {
			for _, st := range stages {
				if sp.Stage == st {
					return sp.At, true
				}
			}
		}
		return 0, false
	}
	tNotify, hasNotify := first(StageNotify)
	tDiag, hasDiag := first(StageDiagnose, StageLocate)
	tAct, hasAct := first(StageAdapt, StageDirective)
	if hasNotify && tNotify >= t.Start {
		detect, okDetect = tNotify-t.Start, true
	}
	if hasNotify && hasDiag && tDiag >= tNotify {
		locate, okLocate = tDiag-tNotify, true
	}
	if hasDiag && hasAct && tAct >= tDiag {
		adapt, okAdapt = tAct-tDiag, true
	}
	return
}

// ComputeLoopStats derives the detect/locate/adapt latency
// distributions of every completed trace in one pass, without touching
// any registry — the pure-function counterpart of LoopMiner, used by
// scrape handlers and reports that must not mutate shared state.
func ComputeLoopStats(traces []*Trace) (detect, locate, adapt StageStats) {
	hd, hl, ha := NewSketch(), NewSketch(), NewSketch()
	for _, t := range traces {
		if !t.Recovered && !t.Abandoned {
			continue
		}
		d, l, a, okD, okL, okA := LoopStageDurations(t)
		if okD {
			hd.Observe(float64(d) / 1e6)
		}
		if okL {
			hl.Observe(float64(l) / 1e6)
		}
		if okA {
			ha.Observe(float64(a) / 1e6)
		}
	}
	return stageStats(hd), stageStats(hl), stageStats(ha)
}

// LoopMiner mines detect→locate→adapt stage latencies out of completed
// violation traces into the registry histograms loop.detect_ms,
// loop.locate_ms and loop.adapt_ms. Each trace is mined exactly once
// (completed traces never gain spans), so Mine may be called repeatedly
// — per flight-recorder sample, per HTTP scrape — without
// double-counting, provided every call presents the tracer's full
// retained set (Traces or TracesSnapshot). Safe for concurrent use.
type LoopMiner struct {
	mu sync.Mutex
	// mined holds the IDs of the completed traces in the last slice
	// presented — bounded by the tracer's retention cap, not by the
	// number of episodes ever seen.
	mined  map[string]struct{}
	detect *Sketch
	locate *Sketch
	adapt  *Sketch
}

// NewLoopMiner creates a miner recording into reg's loop.* histograms
// (registered immediately, so their names are present from the first
// snapshot — deterministic for same-seed sim runs).
func NewLoopMiner(reg *Registry) *LoopMiner {
	return &LoopMiner{
		mined:  make(map[string]struct{}),
		detect: reg.Sketch(MetricLoopDetectMs),
		locate: reg.Sketch(MetricLoopLocateMs),
		adapt:  reg.Sketch(MetricLoopAdaptMs),
	}
}

// Mine records the stage latencies of every not-yet-mined completed
// trace and returns how many traces it consumed.
func (m *LoopMiner) Mine(traces []*Trace) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Rebuild the mined set from this slice alone: a trace the tracer
	// has evicted can never be presented again, so forgetting its ID
	// cannot double-count it.
	seen := make(map[string]struct{}, len(m.mined))
	n := 0
	for _, t := range traces {
		if !t.Recovered && !t.Abandoned {
			continue
		}
		seen[t.ID] = struct{}{}
		if _, done := m.mined[t.ID]; done {
			continue
		}
		n++
		d, l, a, okD, okL, okA := LoopStageDurations(t)
		if okD {
			m.detect.Observe(float64(d) / 1e6)
		}
		if okL {
			m.locate.Observe(float64(l) / 1e6)
		}
		if okA {
			m.adapt.Observe(float64(a) / 1e6)
		}
	}
	m.mined = seen
	return n
}
