package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// liveSpec sizes one live workload. The pool is what lets the default
// 500 ms per-process notify pacing stand: a process is revisited no
// sooner than pool/throughput seconds.
type liveSpec struct {
	pool     int  // instrumented processes
	escalate bool // violations the host rules escalate to the domain manager
}

var liveSpecs = map[string]liveSpec{
	"live_local":    {pool: 12288},
	"live_escalate": {pool: 4096, escalate: true},
}

const (
	// generators is the number of generator goroutines, each with its own
	// TCP connection. The whole benchmark runs on one P (see main.go), so
	// a second closed loop would only queue behind the first.
	generators = 1
	// outstanding is the number of reports a generator keeps in flight:
	// the loop is closed, and with one P more of them would only queue.
	outstanding = 1
	quickPool   = 256
	// pacingGuard is how long the generator leaves a process alone after
	// a report: the coordinator's 500 ms plus a margin for the two clocks
	// being read a few microseconds apart.
	pacingGuard = notifyPause + 10*time.Millisecond
	// tokenTimeout is how long a generator with nothing in flight
	// returning waits before it counts a report as lost.
	tokenTimeout = 5 * time.Second
)

// Episode script, per process, repeating: a violation the host rules
// answer with +3, then three overshoots answered with -1 each, an
// in-band reading before every one of them. Net boost per cycle is 0.
const cycleLen = 4

type reportKind uint8

const (
	kindViolation reportKind = iota
	kindOvershoot
)

func kindAt(pos int, escalate bool) reportKind {
	if escalate || pos%cycleLen == 0 {
		return kindViolation
	}
	return kindOvershoot
}

// boostBefore is the boost a process holds just before the report at
// cycle position pos.
func boostBefore(pos int) int { return (cycleLen - pos%cycleLen) % cycleLen }

// slot is the generator's view of one pool process.
type slot struct {
	sp   *spoke
	conn *genConn
	pos  int // next cycle position; touched by the generator goroutine only

	lastReport time.Duration // generator goroutine only
	// t0 is when the violating reading of the report in flight was set,
	// 0 when nothing is in flight. The spoke's dispatcher stores it, the
	// observing manager's dispatcher swaps it out; kind rides along.
	t0   atomic.Int64
	kind reportKind
}

// sample is one completed episode as the observer saw it.
type sample struct {
	slot   int32
	kind   reportKind
	t0, t1 int64
}

// genRec is the generator side of one traced episode.
type genRec struct {
	slot                             int32
	call, fn, t0, sendStart, sendEnd int64
	ret                              int64
}

// genConn is one generator goroutine and its connection.
type genConn struct {
	sc     *spokeConn
	order  []*slot       // seeded visit order
	tokens chan struct{} // one per report that may be in flight

	// Written by the generator goroutine, read after it stopped.
	notified, suppressed, sendFailed int
	stall                            time.Duration
	minRevisit                       time.Duration
	recs                             []genRec
	opLog                            []opRecord // only when logOps

	attempted atomic.Int64 // also the watchdog's sign of progress
	timeouts  atomic.Int64 // watchdog goroutine
}

// opRecord is one generated operation, for the determinism test.
type opRecord struct {
	pid  int
	kind reportKind
}

const (
	phaseWarm = iota
	phaseWindow
	phaseTraced
	numPhases
)

// liveRun is one live workload in one process.
type liveRun struct {
	spec  liveSpec
	clock func() time.Duration
	st    *liveStack

	pidBase int
	slots   []*slot
	conns   []*genConn
	regNs   []int64

	phase     atomic.Int32
	samples   [numPhases][]sample // appended on the observer's dispatcher only
	completed atomic.Int64
	strays    atomic.Int64
	wrong     atomic.Int64

	stop chan struct{} // closed when the generators are to stop
	// guard and lostAfter are pacingGuard and tokenTimeout; the harness
	// tests shorten them to provoke suppressed and lost reports.
	guard, lostAfter time.Duration
	logOps           bool
}

// setupLive is the whole of set-up: stack up, connections dialled, the
// pool registered through the agent one process at a time, boosts
// preset for processes that start mid-cycle.
func setupLive(spec liveSpec, seed int64) (r *liveRun, err error) {
	start := time.Now()
	r = &liveRun{spec: spec, clock: func() time.Duration { return time.Since(start) },
		stop: make(chan struct{}), guard: pacingGuard, lostAfter: tokenTimeout}
	st, err := newLiveStack(r.clock, spec.escalate)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	r.st = st
	rng := rand.New(rand.NewSource(seed))
	// Six-digit PIDs whatever the seed, so frame sizes do not depend on it.
	r.pidBase = 100000 + rng.Intn(900000-spec.pool)

	for i := 0; i < generators; i++ {
		sc, err := st.newConn(fmt.Sprintf("bench-spoke-%d", i))
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, &genConn{sc: sc, minRevisit: time.Hour,
			tokens: make(chan struct{}, outstanding)})
	}
	r.slots = make([]*slot, spec.pool)
	for i := range r.slots {
		c := r.conns[i%generators]
		s := &slot{sp: c.sc.addSpoke(r.pidBase + i), conn: c}
		if !spec.escalate {
			s.pos = rng.Intn(cycleLen)
		}
		r.slots[i] = s
		c.order = append(c.order, s)
	}
	for _, c := range r.conns {
		rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
		for i := 0; i < outstanding; i++ {
			c.tokens <- struct{}{}
		}
	}
	r.regNs = make([]int64, 0, spec.pool)
	for _, s := range r.slots {
		t := time.Now()
		if err := s.sp.register(); err != nil {
			return nil, err
		}
		r.regNs = append(r.regNs, int64(time.Since(t)))
	}
	for _, s := range r.slots {
		if b := boostBefore(s.pos); b != 0 {
			st.presetBoost(s.sp.pid, b)
		}
	}
	if spec.escalate {
		st.onAdjust(func(int, int, int) { r.strays.Add(1) })
		st.onDiagnosis(func(pid int) { r.observed(pid, 0, 0) })
	} else {
		st.onAdjust(r.observed)
	}
	return r, nil
}

// observed runs on the observing manager's dispatcher for every
// adjustment (or diagnosis): it closes the episode of the process named.
func (r *liveRun) observed(pid, before, value int) {
	t1 := int64(r.clock())
	i := pid - r.pidBase
	if i < 0 || i >= len(r.slots) {
		r.strays.Add(1)
		return
	}
	s := r.slots[i]
	t0 := s.t0.Swap(0)
	if t0 == 0 {
		r.strays.Add(1)
		return
	}
	if !r.spec.escalate {
		want := 3
		if s.kind == kindOvershoot {
			want = -1
		}
		if value-before != want {
			r.wrong.Add(1)
		}
	}
	ph := r.phase.Load()
	r.samples[ph] = append(r.samples[ph], sample{slot: int32(i), kind: s.kind, t0: t0, t1: t1})
	r.completed.Add(1)
	select {
	case s.conn.tokens <- struct{}{}:
	default: // the watchdog already gave this report up and replaced its token
	}
}

// generate is one connection's closed loop: take a token, report for
// the next process in the visit order, repeat. The token comes back when
// the manager's answer to that report is observed.
func (r *liveRun) generate(c *genConn) {
	violFPS, buffer := 22.0, 12.0
	if r.spec.escalate {
		buffer = 2.0
	}
	c.sc.sync(func() {
		for _, s := range c.order {
			s.sp.setBuffer(buffer)
			s.sp.setFPS(25)
		}
	})
	for i := 0; ; i++ {
		s := c.order[i%len(c.order)]
		if s.lastReport != 0 {
			since := r.clock() - s.lastReport
			if since < r.guard {
				select {
				case <-time.After(r.guard - since):
				case <-r.stop:
					return
				}
				c.stall += r.guard - since
				since = r.guard
			}
			if since < c.minRevisit {
				c.minRevisit = since
			}
		}
		select {
		case <-c.tokens:
		case <-r.stop:
			return
		}
		kind := kindAt(s.pos, r.spec.escalate)
		fps := violFPS
		if kind == kindOvershoot {
			fps = 30
		}
		if r.logOps {
			c.opLog = append(c.opLog, opRecord{s.sp.pid, kind})
		}
		traced := c.sc.tracing.Load()
		var rec genRec
		if traced {
			rec.call = int64(r.clock())
		}
		var sent bool
		c.sc.sync(func() {
			if traced {
				rec.fn = int64(r.clock())
			}
			s.sp.setFPS(25) // back in band: closes the previous episode and its trace
			errsBefore := c.sc.sendErrs
			t0 := r.clock()
			s.kind = kind
			s.t0.Store(int64(t0))
			s.lastReport = t0
			sent = s.sp.setFPS(fps)
			if traced {
				rec.ret = int64(r.clock())
			}
			if c.sc.sendErrs != errsBefore {
				c.sendFailed++
				sent = false
			} else if !sent {
				c.suppressed++
			}
			if !sent {
				s.t0.Store(0)
				return
			}
			if traced {
				rec.slot, rec.t0 = int32(s.sp.pid-r.pidBase), int64(t0)
				rec.sendStart, rec.sendEnd = int64(c.sc.sendStart), int64(c.sc.sendEnd)
				c.recs = append(c.recs, rec)
			}
		})
		c.attempted.Add(1)
		s.pos++
		if sent {
			c.notified++
		} else {
			c.tokens <- struct{}{}
		}
	}
}

// watchdog hands a token back when a generator has made no progress for
// lostAfter, counting the report that never completed as timed out.
func (r *liveRun) watchdog(done <-chan struct{}) {
	last := make([]int64, len(r.conns))
	idle := make([]time.Duration, len(r.conns))
	tick := r.lostAfter / 20
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		for i, c := range r.conns {
			p := c.attempted.Load()
			if p != last[i] {
				last[i], idle[i] = p, 0
				continue
			}
			if idle[i] += tick; idle[i] >= r.lostAfter {
				idle[i] = 0
				c.timeouts.Add(1)
				select {
				case c.tokens <- struct{}{}:
				default:
				}
			}
		}
	}
}

// blocksPerWindow is how many equal blocks a measured window is cut
// into: long enough (3 s of a 24 s window) that each holds several
// garbage collections, enough of them that a quartile means something.
const blocksPerWindow = 8

// tick is the cheap accounting read at every block boundary of a window.
type tick struct {
	at          time.Duration // the run's clock
	cpu         time.Duration
	sent, bytes uint64 // msg.net.* totals
}

// window is what one measured stretch of the run produced. It is cut
// into blocks; the end-to-end timings are the good-side quartile of the
// blocks' (see undisturbed).
type window struct {
	from, to     procSnapshot
	ticks        []tick // len = blocks + 1
	samples      []sample
	inboxWaitsNs []int64
}

func (w window) seconds() float64 { return (w.ticks[len(w.ticks)-1].at - w.ticks[0].at).Seconds() }

func (r *liveRun) tick() tick {
	sent, bytes := r.st.netTraffic()
	return tick{at: r.clock(), cpu: cpuTime(), sent: sent, bytes: bytes}
}

// block is one stretch of a window between two ticks.
type block struct {
	seconds     float64
	cpu         time.Duration
	sent, bytes uint64
	episodes    int
	violationUS []float64 // sorted
}

// blocks buckets the window's samples by completion time.
func (w window) blocks() []block {
	out := make([]block, len(w.ticks)-1)
	for i := range out {
		a, b := w.ticks[i], w.ticks[i+1]
		out[i] = block{seconds: (b.at - a.at).Seconds(), cpu: b.cpu - a.cpu, sent: b.sent - a.sent, bytes: b.bytes - a.bytes}
	}
	i := 0
	for _, s := range w.samples { // appended in completion order
		for i < len(out)-1 && s.t1 >= int64(w.ticks[i+1].at) {
			i++
		}
		out[i].episodes++
		if s.kind == kindViolation {
			out[i].violationUS = append(out[i].violationUS, float64(s.t1-s.t0)/1e3)
		}
	}
	for i := range out {
		out[i].violationUS = sortedCopy(out[i].violationUS)
	}
	return out
}

// eachBlock applies f to every block that completed a violation episode.
func eachBlock(blocks []block, f func(block) float64) []float64 {
	var v []float64
	for _, s := range blocks {
		if len(s.violationUS) > 0 {
			v = append(v, f(s))
		}
	}
	return v
}

// measure flips the run into phase ph for d and returns what it saw.
func (r *liveRun) measure(ph int32, d time.Duration) window {
	var w window
	var inbox sync.WaitGroup
	stopInbox := make(chan struct{})
	if ph == phaseTraced {
		for _, c := range r.conns {
			c.sc.tracing.Store(true)
		}
		inbox.Add(1)
		go func() {
			defer inbox.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopInbox:
					return
				case <-t.C:
					w.inboxWaitsNs = append(w.inboxWaitsNs, int64(r.st.hmInboxWait()))
				}
			}
		}()
	}
	const n = blocksPerWindow
	w.from = takeProcSnapshot()
	w.ticks = append(w.ticks, r.tick())
	r.phase.Store(ph)
	for i := 0; i < n; i++ {
		time.Sleep(d / time.Duration(n))
		if i == n-1 {
			r.phase.Store(phaseWarm)
		}
		w.ticks = append(w.ticks, r.tick())
	}
	w.to = takeProcSnapshot()
	close(stopInbox)
	inbox.Wait()
	for _, c := range r.conns {
		c.sc.tracing.Store(false)
	}
	return w
}

// run drives the generators through warm-up and the measured windows,
// then stops them and waits for everything in flight.
func (r *liveRun) run(warm time.Duration, phases []int32, each time.Duration) []window {
	var gens sync.WaitGroup
	for _, c := range r.conns {
		gens.Add(1)
		go func(c *genConn) {
			defer gens.Done()
			r.generate(c)
		}(c)
	}
	wdDone := make(chan struct{})
	go r.watchdog(wdDone)

	time.Sleep(warm)
	windows := make([]window, len(phases))
	for i, ph := range phases {
		windows[i] = r.measure(ph, each)
	}
	close(r.stop)
	gens.Wait()
	close(wdDone)
	// Everything in flight comes back as a token, or is lost.
	for _, c := range r.conns {
		deadline := time.After(r.lostAfter)
	drain:
		for k := 0; k < outstanding; k++ {
			select {
			case <-c.tokens:
			case <-deadline:
				c.timeouts.Add(int64(outstanding - k))
				break drain
			}
		}
	}
	r.st.barrier()
	// Close the traces of the episodes that were last.
	for _, c := range r.conns {
		c.sc.sync(func() {
			for _, s := range c.order {
				s.sp.setFPS(25)
			}
		})
	}
	for i, ph := range phases {
		windows[i].samples = r.samples[ph]
	}
	return windows
}

// gates checks the run's books. Every discrepancy is a failed operation.
func (r *liveRun) gates(c liveCounts, res *results) {
	fail := func(n int64, format string, args ...any) {
		if n < 0 {
			n = -n
		}
		res.fail(int(n), format, args...)
	}
	var notified, suppressed, sendFailed, timeouts int64
	for _, gc := range r.conns {
		notified += int64(gc.notified)
		suppressed += int64(gc.suppressed)
		sendFailed += int64(gc.sendFailed)
		timeouts += gc.timeouts.Load()
	}
	if suppressed > 0 {
		fail(suppressed, "%d reports suppressed by notify pacing", suppressed)
	}
	if sendFailed > 0 {
		fail(sendFailed, "%d reports failed to send", sendFailed)
	}
	if timeouts > 0 {
		fail(timeouts, "%d reports timed out", timeouts)
	}
	completed := r.completed.Load()
	if completed != notified {
		fail(completed-notified, "observed %d answers for %d reports", completed, notified)
	}
	if got := int64(c.hmViolations + c.hmOvershoots); got != notified {
		fail(got-notified, "host manager saw %d reports, %d were sent", got, notified)
	}
	if n := r.strays.Load(); n != 0 {
		fail(n, "%d stray adjustments", n)
	}
	if n := r.wrong.Load(); n != 0 {
		fail(n, "%d adjustments of the wrong size", n)
	}
	if c.hmRuleErrors+c.dmRuleErrors != 0 {
		fail(int64(c.hmRuleErrors+c.dmRuleErrors), "%d rule errors", c.hmRuleErrors+c.dmRuleErrors)
	}
	if n := c.netDropped + c.netDroppedInvalid + c.netSendFailed; n != 0 {
		fail(int64(n), "transport dropped %d, invalid %d, send-failed %d", c.netDropped, c.netDroppedInvalid, c.netSendFailed)
	}
	if c.spokeTracesOpen != 0 {
		fail(int64(c.spokeTracesOpen), "%d spoke traces still open after drain", c.spokeTracesOpen)
	}
	if r.spec.escalate {
		if int64(c.hmEscalations) != notified || int64(c.dmAlarms) != notified || int64(c.dmNetworkFaults) != notified {
			fail(1, "escalations %d, alarms %d, diagnoses %d for %d episodes",
				c.hmEscalations, c.dmAlarms, c.dmNetworkFaults, notified)
		}
		if c.dmPending != 0 {
			fail(int64(c.dmPending), "%d localizations still pending", c.dmPending)
		}
	} else {
		bad := 0
		for _, s := range r.slots {
			if b, ok := r.st.boost(s.sp.pid); ok && (b < 0 || b > 3) {
				bad++
			}
		}
		if bad != 0 {
			fail(int64(bad), "%d processes ended with boost outside [0,3]", bad)
		}
	}
}

func (r *liveRun) attempted() (n int) {
	for _, c := range r.conns {
		n += int(c.attempted.Load())
	}
	return n
}

// trackedProcs counts the pool processes the host manager holds a
// handle for.
func (r *liveRun) trackedProcs() (n int) {
	for _, s := range r.slots {
		if _, ok := r.st.boost(s.sp.pid); ok {
			n++
		}
	}
	return n
}

// latencies splits a window's samples by report kind, in microseconds.
func latencies(samples []sample) (violations, overshoots []float64) {
	for _, s := range samples {
		us := float64(s.t1-s.t0) / 1e3
		if s.kind == kindViolation {
			violations = append(violations, us)
		} else {
			overshoots = append(overshoots, us)
		}
	}
	return sortedCopy(violations), sortedCopy(overshoots)
}
