// Package sim provides the deterministic discrete-event simulation core on
// which every simulated substrate (CPU scheduler, network, managed
// applications, QoS managers) runs.
//
// A Simulator owns a virtual clock and a time-ordered event queue. Events
// scheduled for the same instant fire in the order they were scheduled,
// which keeps runs reproducible. All simulated components must derive any
// randomness they need from the Simulator's seeded RNG rather than from
// package math/rand globals.
//
// The queue is a d-ary min-heap of pointer-free (at, seq, slot) keys, so a
// sift compares contiguous memory and runs no GC write barrier; callbacks
// live in a slab of reusable slots, so steady-state scheduling allocates
// nothing. An EventID names a slot and the generation it was issued for,
// which makes a handle to a fired event inert even once its slot is reused.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of the
// simulation. It deliberately mirrors time.Duration so the rest of the code
// can use duration literals (33 * time.Millisecond) for intervals.
type Time int64

// Common conversions.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// At returns the Time corresponding to a duration from simulation start.
func At(d time.Duration) Time { return Time(d) }

// entry is one queued event's ordering key. It holds no pointer, so the
// heap is a flat array the garbage collector never scans.
type entry struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	slot int32  // index of the callback in Simulator.slab
}

func (e entry) before(o entry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// arity is the heap's fan-out, chosen by measurement: on
// BenchmarkSimSchedulePop (50 000 resident events, fleet-like delays) a
// binary heap is about 5 % faster than a 4-ary and 15 % faster than an
// 8-ary one, and in the 10k-host fleet's profile 2 and 4 tie.
const arity = 2

// event is one callback slot. gen counts the slot's releases, so an
// EventID issued for an earlier occupant no longer matches.
type event struct {
	fn   func()
	gen  uint32
	dead bool // cancelled, not yet reaped
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID names no event.
type EventID struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (id EventID) Cancel() bool {
	if !id.Pending() {
		return false
	}
	id.s.slab[id.slot].dead = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (id EventID) Pending() bool {
	return id.s != nil && id.s.slab[id.slot].gen == id.gen && !id.s.slab[id.slot].dead
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulated concurrency is expressed as events.
type Simulator struct {
	now     Time
	queue   []entry // arity-ary min-heap on (at, seq)
	slab    []event
	free    []int32 // released slab slots
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
}

// New returns a Simulator whose RNG is seeded with seed, at virtual time 0.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far (useful in tests and
// for progress metrics).
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued (including
// cancelled events not yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: that is always a logic error in a DES.
func (s *Simulator) Schedule(at Time, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, event{})
	}
	s.slab[slot].fn = fn
	s.push(entry{at: at, seq: s.seq, slot: slot})
	s.seq++
	return EventID{s: s, slot: slot, gen: s.slab[slot].gen}
}

// After runs fn after duration d from the current time.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.Schedule(s.now+Time(d), fn)
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned Ticker is stopped or the simulation ends.
func (s *Simulator) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.tick = t.fire
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual interval.
type Ticker struct {
	sim      *Simulator
	interval time.Duration
	fn       func()
	tick     func() // t.fire, bound once so a re-arm allocates nothing
	id       EventID
	stopped  bool
}

func (t *Ticker) arm() { t.id = t.sim.After(t.interval, t.tick) }

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.arm()
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.id.Cancel()
}

// Stop halts the simulation after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to it. It
// reports false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		fn, dead := s.release(e.slot)
		if dead {
			continue
		}
		s.now = e.at
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (so a subsequent After is relative to the deadline even when
// the queue drained early). A run ended by Stop leaves the clock at the
// last fired event: events before the deadline may still be queued, and
// the clock must not pass them.
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + Time(d)) }

func (s *Simulator) peek() (Time, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if !s.slab[e.slot].dead {
			return e.at, true
		}
		s.pop()
		s.release(e.slot)
	}
	return 0, false
}

// release frees a popped event's slot, bumping its generation so every
// EventID issued for it goes stale, and returns what the slot held. It
// runs before the callback, which may then reuse the slot.
func (s *Simulator) release(slot int32) (fn func(), dead bool) {
	ev := &s.slab[slot]
	fn, dead = ev.fn, ev.dead
	*ev = event{gen: ev.gen + 1}
	s.free = append(s.free, slot)
	return fn, dead
}

func (s *Simulator) push(e entry) {
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the earliest entry; the queue must be non-empty.
func (s *Simulator) pop() entry {
	q := s.queue
	top, n := q[0], len(q)-1
	last := q[n]
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = i*arity + 1 {
		m := c
		for j := c + 1; j < c+arity && j < n; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
