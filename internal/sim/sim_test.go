package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(At(30*time.Millisecond), func() { got = append(got, 3) })
	s.Schedule(At(10*time.Millisecond), func() { got = append(got, 1) })
	s.Schedule(At(20*time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != At(30*time.Millisecond) {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(At(time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.After(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != At(12*time.Millisecond) {
		t.Errorf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(0, func() {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	id := s.After(time.Millisecond, func() { fired = true })
	if !id.Pending() {
		t.Fatal("event should be pending before Run")
	}
	if !id.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if id.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if id.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	id := s.After(time.Millisecond, func() {})
	s.Run()
	if id.Cancel() {
		t.Fatal("Cancel after fire should return false")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(At(time.Duration(i)*time.Millisecond), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt run: %d events fired", count)
	}
	s.Run() // resume
	if count != 10 {
		t.Fatalf("resume after Stop fired %d total, want 10", count)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() {})
	s.RunUntil(At(time.Second))
	if s.Now() != At(time.Second) {
		t.Errorf("RunUntil left clock at %v, want 1s", s.Now())
	}
	// Events beyond the deadline must not fire.
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.RunFor(time.Second)
	if fired {
		t.Fatal("event beyond RunFor deadline fired")
	}
	if s.Now() != At(2*time.Second) {
		t.Errorf("RunFor left clock at %v, want 2s", s.Now())
	}
	s.RunFor(time.Second)
	if !fired {
		t.Fatal("event within extended deadline did not fire")
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []Time
	tk := s.Every(10*time.Millisecond, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(At(35 * time.Millisecond))
	tk.Stop()
	s.RunUntil(At(100 * time.Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := At(time.Duration(i+1) * 10 * time.Millisecond)
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(At(time.Second))
	if n != 2 {
		t.Fatalf("ticker fired %d times after self-stop, want 2", n)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var out []int
		var step func()
		step = func() {
			out = append(out, s.Rand().Intn(1000))
			if len(out) < 50 {
				s.After(time.Duration(1+s.Rand().Intn(5))*time.Millisecond, step)
			}
		}
		s.After(time.Millisecond, step)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the maximum offset.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := New(7)
		var fired []Time
		var max Time
		for _, off := range offsets {
			at := At(time.Duration(off) * time.Microsecond)
			if at > max {
				max = at
			}
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if At(time.Second).Duration() != time.Second {
		t.Error("Duration conversion wrong")
	}
	if At(2*time.Second).String() != "2s" {
		t.Errorf("String = %q", At(2*time.Second).String())
	}
}

func TestRunUntilStopKeepsClockMonotone(t *testing.T) {
	s := New(1)
	var seen []Time
	s.Schedule(At(time.Millisecond), func() { seen = append(seen, s.Now()); s.Stop() })
	s.Schedule(At(2*time.Millisecond), func() { seen = append(seen, s.Now()) })
	s.RunUntil(At(time.Second))
	if s.Now() != At(time.Millisecond) {
		t.Fatalf("RunUntil ended by Stop left clock at %v, want 1ms (an event at 2ms is still queued)", s.Now())
	}
	before := s.Now()
	s.Run()
	if s.Now() < before || s.Now() != At(2*time.Millisecond) {
		t.Fatalf("clock went %v -> %v after Run, want 1ms -> 2ms", before, s.Now())
	}
	if len(seen) != 2 || seen[0] != At(time.Millisecond) || seen[1] != At(2*time.Millisecond) {
		t.Fatalf("events fired at %v, want [1ms 2ms]", seen)
	}
}

func TestStaleEventIDAfterSlotReuse(t *testing.T) {
	s := New(1)
	a := s.After(time.Millisecond, func() {})
	s.Step()
	bFired := false
	b := s.After(time.Millisecond, func() { bFired = true })
	if b.slot != a.slot {
		t.Fatalf("B got slot %d, want A's released slot %d", b.slot, a.slot)
	}
	if a.Cancel() {
		t.Fatal("Cancel on a fired event whose slot was reused returned true")
	}
	if a.Pending() {
		t.Fatal("Pending on a fired event whose slot was reused returned true")
	}
	if !b.Pending() {
		t.Fatal("stale Cancel touched the slot's new occupant")
	}
	s.Run()
	if !bFired {
		t.Fatal("B did not fire after a stale Cancel on its slot")
	}
	var zero EventID
	if zero.Pending() || zero.Cancel() {
		t.Fatal("the zero EventID must name no event")
	}
}

func TestTickerRearmAllocatesNothing(t *testing.T) {
	s := New(1)
	s.Every(time.Millisecond, func() {})
	s.RunFor(10 * time.Millisecond) // warm-up: slab, free list and queue at size
	if n := testing.AllocsPerRun(1000, func() { s.Step() }); n != 0 {
		t.Fatalf("ticker re-arm allocates %v times per tick, want 0", n)
	}
}

// TestScheduleStepAllocatesNothing pins 0 allocations per event in steady
// state, with a thousand events resident, on the heap (Schedule), on
// lanes (After with fleet-like repeated delays) and on both at once.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	fn := func() {}
	fleet := []time.Duration{100 * time.Microsecond, 2 * time.Millisecond, 2 * time.Second, 5 * time.Second}
	for _, tc := range []struct {
		name string
		op   func(s *Simulator, i int)
	}{
		{"heap", func(s *Simulator, i int) { s.Schedule(s.Now()+Time(time.Millisecond), fn) }},
		{"lanes", func(s *Simulator, i int) { s.After(fleet[i%len(fleet)], fn) }},
		{"mixed", func(s *Simulator, i int) {
			s.After(fleet[i%len(fleet)], fn)
			s.Schedule(s.Now()+Time(i%7)*Time(time.Millisecond), fn)
			s.Step()
		}},
	} {
		s := New(1)
		i := 0
		step := func() {
			tc.op(s, i)
			s.Step()
			i++
		}
		for ; i < 1000; i++ { // resident events
			tc.op(s, i)
		}
		for j := 0; j < 20000; j++ { // warm-up: slab, free list, heap and rings at size
			step()
		}
		if used := s.nlanes > 0; used != (tc.name != "heap") {
			t.Fatalf("%s: lanes used = %v", tc.name, used)
		}
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Fatalf("%s: schedule+step of a pre-built callback allocates %v times, want 0", tc.name, n)
		}
	}
}

// TestLaneAndHeapTiesFireInSeqOrder: events due at one instant fire in
// scheduling order whether they wait on a lane (After) or on the heap
// (Schedule).
func TestLaneAndHeapTiesFireInSeqOrder(t *testing.T) {
	s := New(1)
	for i := 0; i < laneMinHeap; i++ { // a heap big enough for lanes
		s.Schedule(At(time.Hour), func() {})
	}
	const d = 2 * time.Millisecond
	s.After(d, func() {})
	s.After(d, func() {}) // a repeat: opens the lane for d
	s.RunFor(d)
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		s.Schedule(s.Now()+Time(d), func() { got = append(got, fmt.Sprint("heap", i)) })
		s.After(d, func() { got = append(got, fmt.Sprint("lane", i)) })
	}
	if s.lanes[0].d != d || s.lanes[0].n != 3 || len(s.queue) != laneMinHeap+3 {
		t.Fatalf("lane for %v holds %d, heap %d: want 3 events on a lane for %v and 3 more on the heap",
			s.lanes[0].d, s.lanes[0].n, len(s.queue), d)
	}
	s.RunFor(d)
	if want := "[heap0 lane0 heap1 lane1 heap2 lane2]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestReapedSlotsAreReused(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.After(time.Millisecond, fn).Cancel()
		s.After(2*time.Millisecond, fn)
		s.RunFor(2 * time.Millisecond)
	}
	if len(s.slab) > 2 {
		t.Fatalf("slab grew to %d slots for at most 2 live events: fired or reaped slots are not reused", len(s.slab))
	}
}

// BenchmarkSimSchedulePop times one After plus one Step against a queue
// holding about as many events as the 10k-host fleet keeps resident. The
// callback is pre-built, so the figure is the queue's cost alone.
//
//   - random: 4096 distinct delays mixed like the fleet's (half message
//     deliveries of a few milliseconds, half heartbeat and flush timers of
//     1–100 s), so no delay repeats often enough to earn a lane and every
//     event goes through the heap.
//   - fixed: the fleet's own recurring delays (bus latencies of 100 µs and
//     2 ms, timer periods of 2, 5, 10 and 15 s), which all ride lanes.
func BenchmarkSimSchedulePop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	random := make([]time.Duration, 4096)
	for i := range random {
		span := 10 * time.Millisecond
		switch r.Intn(4) {
		case 0:
			span = 10 * time.Second
		case 1:
			span = 100 * time.Second
		}
		random[i] = time.Duration(r.Int63n(int64(span)))
	}
	fixed := []time.Duration{100 * time.Microsecond, 2 * time.Millisecond,
		2 * time.Second, 5 * time.Second, 10 * time.Second, 15 * time.Second}
	for _, bc := range []struct {
		name   string
		delays []time.Duration
	}{{"random", random}, {"fixed", fixed}} {
		b.Run(bc.name, func(b *testing.B) {
			const resident = 50000
			delays := bc.delays
			s := New(1)
			fn := func() {}
			for i := 0; i < resident; i++ {
				s.After(delays[i%len(delays)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(delays[i%len(delays)], fn)
				s.Step()
			}
		})
	}
}

// --- reference queue ---------------------------------------------------

// refSim is the container/heap simulator the pointer-free queue replaced:
// one heap object and one closure per event, a handle that is a pointer
// to the event. It differs from the original only in carrying the
// RunUntil clock fix, so TestQueueMatchesReference compares queues, not
// that bug.
type refSim struct {
	now     Time
	queue   refHeap
	seq     uint64
	stopped bool
	fired   uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type refID struct{ ev *refEvent }

func (id refID) Cancel() bool {
	if id.ev == nil || id.ev.dead || id.ev.idx < 0 {
		return false
	}
	id.ev.dead = true
	return true
}

func (id refID) Pending() bool { return id.ev != nil && !id.ev.dead && id.ev.idx >= 0 }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func (s *refSim) Schedule(at Time, fn func()) refID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	ev := &refEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return refID{ev}
}

func (s *refSim) After(d time.Duration, fn func()) refID { return s.Schedule(s.now+Time(d), fn) }

type refTicker struct {
	sim      *refSim
	interval time.Duration
	fn       func()
	id       refID
	stopped  bool
}

func (s *refSim) Every(interval time.Duration, fn func()) *refTicker {
	t := &refTicker{sim: s, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.id = t.sim.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.id.Cancel()
}

func (s *refSim) Stop() { s.stopped = true }

func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*refEvent)
		if ev.dead {
			continue
		}
		s.now = ev.at
		s.fired++
		ev.fn()
		return true
	}
	return false
}

func (s *refSim) RunUntil(deadline Time) {
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

func (s *refSim) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].dead {
			heap.Pop(&s.queue)
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

// --- differential check -------------------------------------------------

// driven is the surface the differential test drives, over the Simulator
// or the reference. Events and tickers are named by creation index.
type driven interface {
	now() Time
	fired() uint64
	queued() int
	schedule(at Time, fn func())
	after(d time.Duration, fn func())
	every(d time.Duration, fn func())
	stopTicker(i int)
	cancel(h int) bool
	pending(h int) bool
	step() bool
	runUntil(t Time)
	stop()
}

type simSide struct {
	s   *Simulator
	ids []EventID
	tks []*Ticker
}

func (d *simSide) now() Time                         { return d.s.Now() }
func (d *simSide) fired() uint64                     { return d.s.Fired() }
func (d *simSide) queued() int                       { return d.s.Pending() }
func (d *simSide) schedule(at Time, fn func())       { d.ids = append(d.ids, d.s.Schedule(at, fn)) }
func (d *simSide) after(dl time.Duration, fn func()) { d.ids = append(d.ids, d.s.After(dl, fn)) }
func (d *simSide) every(dl time.Duration, fn func()) { d.tks = append(d.tks, d.s.Every(dl, fn)) }
func (d *simSide) stopTicker(i int)                  { d.tks[i].Stop() }
func (d *simSide) cancel(h int) bool                 { return d.ids[h].Cancel() }
func (d *simSide) pending(h int) bool                { return d.ids[h].Pending() }
func (d *simSide) step() bool                        { return d.s.Step() }
func (d *simSide) runUntil(t Time)                   { d.s.RunUntil(t) }
func (d *simSide) stop()                             { d.s.Stop() }

type refSide struct {
	s   *refSim
	ids []refID
	tks []*refTicker
}

func (d *refSide) now() Time                         { return d.s.now }
func (d *refSide) fired() uint64                     { return d.s.fired }
func (d *refSide) queued() int                       { return len(d.s.queue) }
func (d *refSide) schedule(at Time, fn func())       { d.ids = append(d.ids, d.s.Schedule(at, fn)) }
func (d *refSide) after(dl time.Duration, fn func()) { d.ids = append(d.ids, d.s.After(dl, fn)) }
func (d *refSide) every(dl time.Duration, fn func()) { d.tks = append(d.tks, d.s.Every(dl, fn)) }
func (d *refSide) stopTicker(i int)                  { d.tks[i].Stop() }
func (d *refSide) cancel(h int) bool                 { return d.ids[h].Cancel() }
func (d *refSide) pending(h int) bool                { return d.ids[h].Pending() }
func (d *refSide) step() bool                        { return d.s.Step() }
func (d *refSide) runUntil(t Time)                   { d.s.RunUntil(t) }
func (d *refSide) stop()                             { d.s.Stop() }

// action is what a callback does when it fires, drawn once at scheduling
// time so both sides run the same one.
type action struct {
	kind int // actNone, actSchedule, actCancel, actStopTicker or actStop
	arg  int // delay in ms, handle or ticker index
	tick int // for ticker callbacks: the tick on which to act
}

const (
	actNone = iota
	actSchedule
	actCancel
	actStopTicker
	actStop
)

// world is one side of the differential run plus the log of everything
// observable its callbacks did.
type world struct {
	d       driven
	handles int
	tickers int
	label   int
	log     []string
}

func (w *world) add(at Time, a action, viaAfter bool) {
	label := w.label
	w.label++
	fn := func() {
		w.log = append(w.log, fmt.Sprintf("fire %d at %v", label, w.d.now()))
		w.do(a)
	}
	if viaAfter {
		w.d.after(time.Duration(at-w.d.now()), fn)
	} else {
		w.d.schedule(at, fn)
	}
	w.handles++
}

func (w *world) addTicker(interval time.Duration, a action) {
	label, n := w.label, 0
	w.label++
	w.d.every(interval, func() {
		n++
		w.log = append(w.log, fmt.Sprintf("tick %d #%d at %v", label, n, w.d.now()))
		if n == a.tick {
			w.do(a)
		}
	})
	w.tickers++
}

func (w *world) do(a action) {
	switch a.kind {
	case actSchedule: // even delays through After, odd ones through Schedule
		w.add(w.d.now()+Time(a.arg)*Time(time.Millisecond), action{}, a.arg%2 == 0)
	case actCancel:
		w.log = append(w.log, fmt.Sprintf("cancel %d -> %v", a.arg, w.d.cancel(a.arg)))
	case actStopTicker:
		w.d.stopTicker(a.arg)
	case actStop:
		w.d.stop()
	}
}

func drawAction(r *rand.Rand, handles, tickers int) action {
	switch r.Intn(10) {
	case 0, 1:
		return action{kind: actSchedule, arg: r.Intn(4)}
	case 2, 3:
		if handles > 0 {
			return action{kind: actCancel, arg: r.Intn(handles)}
		}
	case 4:
		if tickers > 0 {
			return action{kind: actStopTicker, arg: r.Intn(tickers)}
		}
	case 5:
		return action{kind: actStop}
	}
	return action{}
}

// drawDelay returns a delay for After: mostly one of twelve recurring
// values — more than the Simulator has lanes, so lanes fill, drain and
// are recycled — and otherwise a one-off that stays on the heap.
func drawDelay(r *rand.Rand) time.Duration {
	if r.Intn(5) == 0 {
		return time.Duration(r.Int63n(int64(6 * time.Millisecond)))
	}
	return time.Duration(r.Intn(12)) * 500 * time.Microsecond
}

// TestQueueMatchesReference drives the Simulator and the container/heap
// reference through the same seeded random operations — bursts of equal
// timestamps, After with recurring and one-off delays, Every with
// intervals the After delays share, Ticker.Stop, Cancel on live, fired and
// stale handles, Step, RunUntil and Stop, many of them from inside
// callbacks — and requires the same firing sequence and the same
// observable state after every operation. Lane and heap events
// interleave at equal instants, and RunUntil and Stop land between the
// entries of a lane.
func TestQueueMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			got := &world{d: &simSide{s: New(seed)}}
			want := &world{d: &refSide{s: &refSim{}}}
			both := []*world{got, want}
			ms := Time(time.Millisecond)
			// Even seeds keep the heap big enough for lanes to open from
			// the first repeat: hourly events, outside the handle space,
			// that a drained queue reaches one at a time. Odd seeds open
			// lanes only while bursts fill the heap.
			ballast := seed%2 == 0
			for i := 1; ballast && i <= 8*laneMinHeap; i++ {
				at := Time(i) * Time(time.Hour)
				got.d.(*simSide).s.Schedule(at, func() { got.log = append(got.log, fmt.Sprint("ballast at ", at)) })
				want.d.(*refSide).s.Schedule(at, func() { want.log = append(want.log, fmt.Sprint("ballast at ", at)) })
			}
			for op := 0; op < 3000; op++ {
				var what string
				switch k := r.Intn(100); {
				case k < 25:
					at := got.d.now() + Time(r.Intn(6))*ms
					a := drawAction(r, got.handles, got.tickers)
					what = fmt.Sprintf("Schedule(%v, %+v)", at, a)
					for _, w := range both {
						w.add(at, a, false)
					}
				case k < 35:
					at := got.d.now() + Time(drawDelay(r))
					n := 1
					if r.Intn(10) == 0 {
						n = 50 + r.Intn(100) // a burst: a lane's ring wraps and grows
					}
					what = fmt.Sprintf("%d x After(%v)", n, at)
					for ; n > 0; n-- {
						a := drawAction(r, got.handles, got.tickers)
						for _, w := range both {
							w.add(at, a, true)
						}
					}
				case k < 40:
					interval := time.Duration(1+r.Intn(4)) * time.Millisecond
					a := drawAction(r, got.handles, got.tickers)
					if r.Intn(3) == 0 {
						a = action{kind: actStopTicker, arg: got.tickers} // stops itself
					}
					a.tick = 1 + r.Intn(5)
					what = fmt.Sprintf("Every(%v, %+v)", interval, a)
					for _, w := range both {
						w.addTicker(interval, a)
					}
				case k < 45:
					if got.tickers == 0 {
						continue
					}
					i := r.Intn(got.tickers)
					what = fmt.Sprintf("Ticker(%d).Stop", i)
					for _, w := range both {
						w.d.stopTicker(i)
					}
				case k < 55:
					if got.handles == 0 {
						continue
					}
					h := r.Intn(got.handles)
					what = fmt.Sprintf("Cancel(%d)", h)
					if g, w := got.d.cancel(h), want.d.cancel(h); g != w {
						t.Fatalf("op %d %s: Cancel = %v, reference %v", op, what, g, w)
					}
				case k < 80:
					what = "Step"
					if g, w := got.d.step(), want.d.step(); g != w {
						t.Fatalf("op %d %s: Step = %v, reference %v", op, what, g, w)
					}
				case k < 97:
					deadline := got.d.now() + Time(r.Intn(12))*ms
					what = fmt.Sprintf("RunUntil(%v)", deadline)
					for _, w := range both {
						w.d.runUntil(deadline)
					}
				default:
					what = "Stop"
					for _, w := range both {
						w.d.stop()
					}
				}
				compareWorlds(t, op, what, got, want, op%64 == 0, r)
			}
			if got.d.fired() < 1000 {
				t.Fatalf("only %d events fired: the operation mix is too thin", got.d.fired())
			}
			if n := got.d.(*simSide).s.nlanes; ballast && n != maxLanes || n == 0 {
				t.Fatalf("%d of %d lanes opened: the delay mix does not fill them", n, maxLanes)
			}
		})
	}
}

// compareWorlds fails unless both sides logged the same callbacks and
// agree on the clock, the counters and, for a sample of handles (all of
// them when full is set), Pending.
func compareWorlds(t *testing.T, op int, what string, got, want *world, full bool, r *rand.Rand) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("op %d %s: %d callback records, reference %d", op, what, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("op %d %s: record %d is %q, reference %q", op, what, i, got.log[i], want.log[i])
		}
	}
	got.log, want.log = got.log[:0], want.log[:0]
	if g, w := got.d.now(), want.d.now(); g != w {
		t.Fatalf("op %d %s: Now = %v, reference %v", op, what, g, w)
	}
	if g, w := got.d.fired(), want.d.fired(); g != w {
		t.Fatalf("op %d %s: Fired = %d, reference %d", op, what, g, w)
	}
	if g, w := got.d.queued(), want.d.queued(); g != w {
		t.Fatalf("op %d %s: Pending = %d, reference %d", op, what, g, w)
	}
	if got.handles != want.handles || got.tickers != want.tickers {
		t.Fatalf("op %d %s: %d handles / %d tickers, reference %d / %d",
			op, what, got.handles, got.tickers, want.handles, want.tickers)
	}
	check := func(h int) {
		if g, w := got.d.pending(h), want.d.pending(h); g != w {
			t.Fatalf("op %d %s: handle %d Pending = %v, reference %v", op, what, h, g, w)
		}
	}
	switch {
	case full:
		for h := 0; h < got.handles; h++ {
			check(h)
		}
	case got.handles > 0:
		check(r.Intn(got.handles))
		check(got.handles - 1)
	}
}
