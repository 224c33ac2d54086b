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
// sift compares contiguous memory and runs no GC write barrier, plus a few
// FIFO lanes: events scheduled by After with one repeated delay arrive
// already sorted by (at, seq), so a lane holds them in constant time per
// event and the heap keeps only the rest. The next event is the earliest
// of the heap top and the lane heads, which is the order the heap alone
// would give. Callbacks live in a slab of reusable slots, so steady-state
// scheduling allocates nothing. An EventID names a slot and the generation
// it was issued for, which makes a handle to a fired event inert even once
// its slot is reused.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of the
// simulation. It deliberately mirrors time.Duration so the rest of the code
// can use duration literals (33 * time.Millisecond) for intervals.
type Time int64

// Common conversions.
func (t Time) Duration() time.Duration { return time.Duration(t) }

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
// BenchmarkSimSchedulePop/random (50 000 resident events on the heap) a
// binary heap is about 5 % faster than a 4-ary and 15 % faster than an
// 8-ary one, and in the 10k-host fleet's profile 2 and 4 tie.
const arity = 2

// maxLanes bounds the FIFO lanes. The 10k-host fleet schedules 97 % of
// its events through After with five recurring delays (the 2 ms bus hop,
// timer periods of 2, 5, 10 and 15 s); its other delays are one-offs
// that stay on the heap.
const maxLanes = 8

// laneMinHeap is the heap size below which no lane opens. A heap that
// small sifts in a few levels, which is cheaper than scanning lanes on
// every Step: Figure 3's simulations never queue more than 14 events,
// while the 10k-host fleet keeps about 40 000.
const laneMinHeap = 256

// seenBits sizes Simulator.seen, the memory of recent heap-bound delays
// that decides when a delay has repeated: 1<<seenBits hash buckets of
// two delays each, so two recurring delays that share a bucket do not
// evict each other. Its zero value already holds delay 0.
const seenBits = 4

// lane is a FIFO of the entries After scheduled with delay d. The clock
// never goes back and seq only grows, so each push is at or after the
// previous one in (at, seq) order and the ring stays sorted.
type lane struct {
	d    time.Duration
	ring []entry // power-of-two length; n entries from head
	head int
	n    int
}

func (l *lane) push(e entry) {
	if l.n == len(l.ring) {
		ring := make([]entry, max(64, 2*len(l.ring)))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

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
	lanes   [maxLanes]lane
	nlanes  int                          // lanes[:nlanes] have been opened
	seen    [2 << seenBits]time.Duration // recent heap-bound delays, two per hash; a repeat takes a lane
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
func (s *Simulator) Pending() int {
	n := len(s.queue)
	for i := range s.lanes[:s.nlanes] {
		n += s.lanes[i].n
	}
	return n
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: that is always a logic error in a DES.
func (s *Simulator) Schedule(at Time, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	return s.enqueue(at, fn, nil)
}

// enqueue files fn at at in lane l, or in the heap when l is nil.
func (s *Simulator) enqueue(at Time, fn func(), l *lane) EventID {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, event{})
	}
	s.slab[slot].fn = fn
	if e := (entry{at: at, seq: s.seq, slot: slot}); l != nil {
		l.push(e)
	} else {
		s.push(e)
	}
	s.seq++
	return EventID{s: s, slot: slot, gen: s.slab[slot].gen}
}

// After runs fn after duration d from the current time.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.enqueue(s.now+Time(d), fn, s.laneFor(d))
}

// laneFor returns the lane for delay d: the one holding d, or, once the
// heap holds laneMinHeap events, a lane not yet opened or empty
// (recycled, ring and all) when d repeats a delay the heap took
// recently. nil sends the event to the heap, so a one-off delay never
// takes a lane and a queue of distinct delays pays only this lookup.
func (s *Simulator) laneFor(d time.Duration) *lane {
	var empty *lane
	for i := range s.lanes[:s.nlanes] {
		if l := &s.lanes[i]; l.d == d {
			return l
		} else if l.n == 0 && empty == nil {
			empty = l
		}
	}
	if len(s.queue) < laneMinHeap {
		return nil
	}
	h := uint64(d) * 0x9e3779b97f4a7c15 >> (64 - seenBits) // Fibonacci hashing
	if seen := s.seen[2*h : 2*h+2]; seen[0] != d && seen[1] != d {
		seen[0], seen[1] = d, seen[0]
		return nil
	}
	if empty == nil && s.nlanes < maxLanes {
		empty = &s.lanes[s.nlanes]
		s.nlanes++
	}
	if empty != nil {
		empty.d = d
	}
	return empty
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
func (s *Simulator) Step() bool { return s.step(math.MaxInt64) }

// step fires the next event if it is due by deadline and reports whether
// it fired one. Cancelled entries at the front are reaped whatever their
// time.
func (s *Simulator) step(deadline Time) bool {
	for {
		l, e, ok := s.next()
		if !ok {
			return false
		}
		if !s.slab[e.slot].dead && e.at > deadline {
			return false
		}
		s.remove(l)
		fn, dead := s.release(e.slot)
		if dead {
			continue
		}
		s.now = e.at
		s.fired++
		fn()
		return true
	}
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
	for !s.stopped && s.step(deadline) {
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + Time(d)) }

// next finds the earliest queued entry, cancelled or not: the heap top
// or a lane head, whichever is first by (at, seq). l is its lane, nil
// for the heap; ok is false when nothing is queued.
func (s *Simulator) next() (l *lane, e entry, ok bool) {
	if len(s.queue) > 0 {
		e, ok = s.queue[0], true
	}
	for i := range s.lanes[:s.nlanes] {
		if c := &s.lanes[i]; c.n > 0 && (!ok || c.ring[c.head].before(e)) {
			l, e, ok = c, c.ring[c.head], true
		}
	}
	return l, e, ok
}

// remove drops the entry next found, from lane l or from the heap.
func (s *Simulator) remove(l *lane) {
	if l != nil {
		l.pop()
	} else {
		s.pop()
	}
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
