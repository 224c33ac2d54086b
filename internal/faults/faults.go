// Package faults injects failures into the management plane at the
// msg.Transport seam. A Plan is a list of Rules — drop, delay,
// duplicate or reorder matching messages, sever established
// connections, simulate a crashed process or a partitioned host — and a
// Transport wraps any msg.Transport (the sim Bus or the live
// NetTransport) to apply them. All randomness comes from the plan's
// seed, so a simulated run under faults is exactly as reproducible as
// one without.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"
)

// Kinds of injectable fault.
const (
	KindDrop      = "drop"      // message silently lost in flight
	KindDelay     = "delay"     // message delivered late
	KindDuplicate = "duplicate" // message delivered twice
	KindReorder   = "reorder"   // message overtaken by the next one
	KindSever     = "sever"     // established connections torn down
	KindCrash     = "crash"     // Target process down for [After, Until)
	KindPartition = "partition" // Target host unreachable for [After, Until)
)

// kinds is the closed set of fault kinds: what Validate accepts and
// what Transport.SetMetrics registers a counter for.
var kinds = []string{KindDrop, KindDelay, KindDuplicate, KindReorder,
	KindSever, KindCrash, KindPartition}

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms") so plan files stay readable, while still accepting plain
// nanosecond numbers.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("faults: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Rule describes one fault. A message matches when every non-zero
// selector matches: Types (message type tags; empty = any), From and To
// (address prefixes), and the rule's active window [After, Until)
// (zero Until = forever). Prob is the per-message injection
// probability for the message-level kinds (<= 0 means always); crash
// and partition ignore it — they hold for the whole window.
//
// Target names the victim of sever/crash/partition: crash matches
// management addresses by prefix (sends to the dead process fail as a
// dial error, sends from it are lost), partition matches the host
// segment of addresses on either side (all traffic crossing the
// partition is lost), sever needs no target — it trips the transport's
// sever hook.
type Rule struct {
	Name   string   `json:"name,omitempty"`
	Kind   string   `json:"kind"`
	Types  []string `json:"types,omitempty"`
	From   string   `json:"from,omitempty"`
	To     string   `json:"to,omitempty"`
	Target string   `json:"target,omitempty"`
	Prob   float64  `json:"prob,omitempty"`
	Delay  Duration `json:"delay,omitempty"`  // delay kind: added latency
	Jitter Duration `json:"jitter,omitempty"` // delay kind: uniform extra in [0, Jitter)
	After  Duration `json:"after,omitempty"`
	Until  Duration `json:"until,omitempty"`
}

// active reports whether the rule's window covers now.
func (r *Rule) active(now time.Duration) bool {
	if now < time.Duration(r.After) {
		return false
	}
	if r.Until != 0 && now >= time.Duration(r.Until) {
		return false
	}
	return true
}

// matchesType reports whether the rule selects the message type tag.
func (r *Rule) matchesType(tag string) bool {
	if len(r.Types) == 0 {
		return true
	}
	for _, t := range r.Types {
		if t == tag {
			return true
		}
	}
	return false
}

// Plan is a seeded fault schedule.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule names a known kind.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if !slices.Contains(kinds, r.Kind) {
			return fmt.Errorf("faults: rule %d (%s): unknown kind %q", i, r.Name, r.Kind)
		}
		if r.Kind == KindCrash || r.Kind == KindPartition {
			if r.Target == "" {
				return fmt.Errorf("faults: rule %d (%s): %s needs a target", i, r.Name, r.Kind)
			}
		}
	}
	return nil
}

// Parse decodes a JSON plan and validates it.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: bad plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// hostOf extracts the host segment of a hierarchical management
// address ("/video-client/App/exe/1" -> "video-client").
func hostOf(addr string) string {
	s := strings.TrimPrefix(addr, "/")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}

// RandomPlan builds a randomized soak schedule: message-level chaos
// (drop/delay/duplicate/reorder at the given per-message rate) over the
// whole horizon, an early connection sever, a mid-run crash window for
// the client host manager, and a late partition of the management
// host. All derived deterministically from seed.
func RandomPlan(seed int64, rate float64, horizon time.Duration) *Plan {
	rng := rand.New(rand.NewSource(seed))
	jig := func(f float64) Duration { // a point at roughly f of the horizon
		return Duration(float64(horizon) * (f + 0.05*rng.Float64()))
	}
	crashAt, crashFor := jig(0.4), Duration(horizon/20)
	partAt, partFor := jig(0.7), Duration(horizon/25)
	return &Plan{
		Seed: seed,
		Rules: []Rule{
			{Name: "chaos-drop", Kind: KindDrop, Prob: rate},
			{Name: "chaos-delay", Kind: KindDelay, Prob: rate,
				Delay: Duration(20 * time.Millisecond), Jitter: Duration(80 * time.Millisecond)},
			{Name: "chaos-dup", Kind: KindDuplicate, Prob: rate / 2},
			{Name: "chaos-reorder", Kind: KindReorder, Prob: rate / 2},
			{Name: "early-sever", Kind: KindSever, Prob: rate / 4,
				After: jig(0.1), Until: jig(0.2)},
			{Name: "hm-crash", Kind: KindCrash, Target: "/client-host/",
				After: crashAt, Until: crashAt + crashFor},
			{Name: "mgmt-partition", Kind: KindPartition, Target: "mgmt",
				After: partAt, Until: partAt + partFor},
		},
	}
}
