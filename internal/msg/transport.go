package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// Transport is the management-plane transport seam: what the manager
// stack needs to exchange messages, satisfied by both the in-simulation
// Bus and the live TCP NetTransport. Send must return an error when the
// destination is not reachable (unbound address, no route) so callers
// can detect dead managers.
type Transport interface {
	Send(to string, m Message) error
	Bind(addr, host string, h BusHandler)
	Unbind(addr string)
	Bound(addr string) bool
}

var (
	_ Transport = (*Bus)(nil)
	_ Transport = (*NetTransport)(nil)
)

// netMetrics holds the routed TCP transport's pre-resolved metric
// handles under "msg.net.*". The per-type tag set includes "nack", which
// only ever flows live.
type netMetrics struct {
	sent       *telemetry.Counter
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
	invalid    *telemetry.Counter
	badFrame   *telemetry.Counter
	bytes      *telemetry.Counter
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	sendFailed *telemetry.Counter
	internFull *telemetry.Counter
	byType     map[string]*telemetry.Counter
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	tags := append(append([]string(nil), typeTags...), "nack", "heartbeat", "alarmbatch")
	m := &netMetrics{
		sent:       reg.Counter("msg.net.sent"),
		delivered:  reg.Counter("msg.net.delivered"),
		dropped:    reg.Counter("msg.net.dropped"),
		invalid:    reg.Counter("msg.net.dropped_invalid"),
		badFrame:   reg.Counter("msg.net.bad_frame"),
		bytes:      reg.Counter("msg.net.bytes"),
		retries:    reg.Counter("msg.net.retries"),
		reconnects: reg.Counter("msg.net.reconnects"),
		sendFailed: reg.Counter("msg.net.send_failed"),
		internFull: reg.Counter("msg.net.intern_overflow"),
		byType:     make(map[string]*telemetry.Counter, len(tags)),
	}
	for _, tag := range tags {
		m.byType[tag] = reg.Counter("msg.net.sent." + tag)
	}
	return m
}

// NetTransport is the live-mode Transport: one node of a distributed
// management session. Each process creates one NetTransport, binds its
// local components' management addresses, and sends to any address —
// local addresses are delivered in-process, remote ones travel as routed
// binary frames over TCP connections that are dialed on demand and
// reused.
//
// Routing: a destination resolves, in order, to (1) a locally bound
// handler, (2) a connection learned from a previous inbound message with
// that From address (reply routing), (3) a static Route entry mapping
// the management address to a "host:port", or (4) the address itself
// when it looks like a "host:port". A node receiving a frame whose To
// address is not bound delivers it to its sole handler if it has exactly
// one (this lets a single-component node be addressed by its TCP
// address), otherwise drops it.
//
// All local handler invocations — whether from local sends or from any
// connection's read loop — are serialized on one dispatcher goroutine,
// so the managers run exactly as single-threaded as they do under the
// simulator and need no locking. Handlers may call Send freely (it only
// enqueues or writes, never blocks on dispatch).
type NetTransport struct {
	host string
	ln   net.Listener

	mu       sync.Mutex
	closed   bool
	handlers map[string]func(Message)
	routes   map[string]string // management address -> "host:port"
	learned  map[string]*Conn  // sender management address -> conn
	dialed   map[string]*Conn  // "host:port" -> conn
	conns    map[*Conn]struct{}
	wg       sync.WaitGroup

	dmu   sync.Mutex
	dcond *sync.Cond
	inbox inbox
	ddone bool
	dexit chan struct{}

	everDialed map[string]struct{} // addrs connected at least once (for reconnect counting)

	sent           atomic.Uint64
	delivered      atomic.Uint64
	dropped        atomic.Uint64
	droppedInvalid atomic.Uint64
	retries        atomic.Uint64
	reconnects     atomic.Uint64
	sendFailed     atomic.Uint64

	evlog   atomic.Pointer[eventlog.Logger]
	metrics atomic.Pointer[netMetrics]
}

// NewNetTransport creates a live transport node named host. listen is
// the TCP listen address ("127.0.0.1:0" for an ephemeral port) or empty
// for a dial-only node (a pure client, e.g. an instrumented process that
// only talks to its agent and host manager).
func NewNetTransport(host, listen string) (*NetTransport, error) {
	t := &NetTransport{
		host:       host,
		handlers:   make(map[string]func(Message)),
		routes:     make(map[string]string),
		learned:    make(map[string]*Conn),
		dialed:     make(map[string]*Conn),
		conns:      make(map[*Conn]struct{}),
		everDialed: make(map[string]struct{}),
		dexit:      make(chan struct{}),
	}
	t.dcond = sync.NewCond(&t.dmu)
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, fmt.Errorf("msg: listen %s: %w", listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	go t.dispatchLoop()
	return t, nil
}

// Addr returns the node's TCP listen address, or "" for dial-only nodes.
func (t *NetTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetMetrics attaches the transport to a metrics registry: counters for
// messages sent/delivered/dropped, wire bytes, and per-type message
// counts under "msg.net.*".
func (t *NetTransport) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		t.metrics.Store(nil)
		return
	}
	t.metrics.Store(newNetMetrics(reg))
}

// Stats returns messages sent, delivered to local handlers, and dropped.
func (t *NetTransport) Stats() (sent, delivered, dropped uint64) {
	return t.sent.Load(), t.delivered.Load(), t.dropped.Load()
}

// DroppedInvalid returns how many decoded messages failed Validate and
// were logged and dropped instead of dispatched.
func (t *NetTransport) DroppedInvalid() uint64 { return t.droppedInvalid.Load() }

// SetEventLog routes the transport's diagnostics (invalid-message drops,
// unframeable streams, exhausted retries, reconnects) into the structured
// event log as component "msg" records. Pass nil to detach.
func (t *NetTransport) SetEventLog(lg *eventlog.Logger) {
	if lg == nil {
		t.evlog.Store(nil)
		return
	}
	t.evlog.Store(lg)
}

// dropInvalid reports and counts a message that decoded but failed
// Validate: a structured "msg"/"invalid_drop" event-log record naming
// the node, both endpoints, the envelope kind ("?" when the body type is
// unknown) and the Validate error.
func (t *NetTransport) dropInvalid(to string, m Message, err error) {
	t.droppedInvalid.Add(1)
	if nm := t.metrics.Load(); nm != nil {
		nm.invalid.Inc()
	}
	kind := "?"
	if tag, tagErr := typeTag(m.Body); tagErr == nil {
		kind = tag
	}
	t.evlog.Load().EventCtx(m.Trace, eventlog.Warn, "msg", "invalid_drop",
		eventlog.Str("node", t.host), eventlog.Str("from", m.From),
		eventlog.Str("to", to), eventlog.Str("kind", kind),
		eventlog.Str("error", err.Error()))
}

// Bind attaches a handler to a local management address. The host label
// is informational (the Transport seam shares the Bus signature).
// Rebinding replaces the handler.
func (t *NetTransport) Bind(addr, host string, h BusHandler) {
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
	_ = host
}

// Unbind removes a local address.
func (t *NetTransport) Unbind(addr string) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Bound reports whether a local handler is bound at addr.
func (t *NetTransport) Bound(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.handlers[addr]
	return ok
}

// Route statically maps a management address to the TCP address of the
// node hosting it (the live analogue of the simulator's address table).
func (t *NetTransport) Route(mgmtAddr, tcpAddr string) {
	t.mu.Lock()
	t.routes[mgmtAddr] = tcpAddr
	t.mu.Unlock()
}

// Do runs fn on the dispatcher goroutine, after any queued deliveries.
// It is how embedding code touches the (lock-free) managers safely.
func (t *NetTransport) Do(fn func()) {
	t.dispatch(delivery{fn: fn})
}

// Sync runs fn on the dispatcher goroutine and waits for it to finish.
// It must not be called from inside a handler (it would deadlock).
func (t *NetTransport) Sync(fn func()) {
	done := make(chan struct{})
	t.dispatch(delivery{fn: fn, done: done})
	<-done
}

// Resilience returns how many sends were retried, how many redials of a
// previously connected peer succeeded, and how many sends failed after
// the retry schedule was exhausted.
func (t *NetTransport) Resilience() (retries, reconnects, sendFailed uint64) {
	return t.retries.Load(), t.reconnects.Load(), t.sendFailed.Load()
}

// Send delivers m to a management address: in-process when the address
// is bound locally, over TCP otherwise (see NetTransport's routing
// order). Transient connection failures — the peer restarting, a conn
// dropped mid-send — are retried on the DefaultBackoff schedule; the
// peer is redialed between tries. The returned
// error is a *SendError classifying the final failure: routing and
// validation errors return immediately without retrying.
func (t *NetTransport) Send(to string, m Message) error {
	if err := Validate(m); err != nil {
		t.dropInvalid(to, m, err)
		return &SendError{To: to, Kind: ErrInvalid, Err: err}
	}
	for try := 0; ; try++ {
		if try > 0 {
			t.retries.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.retries.Inc()
			}
			t.evlog.Load().EventCtx(m.Trace, eventlog.Debug, "msg", "send_retry",
				eventlog.Str("to", to), eventlog.Int("try", try))
			time.Sleep(DefaultBackoff.Delay(try, rand.Float64()))
		}
		err := t.trySend(to, m)
		if err == nil {
			return nil
		}
		var se *SendError
		if !errors.As(err, &se) || !se.Retryable() || DefaultBackoff.Exhausted(try+1) {
			t.sendFailed.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.sendFailed.Inc()
			}
			t.evlog.Load().EventCtx(m.Trace, eventlog.Warn, "msg", "send_failed",
				eventlog.Str("to", to), eventlog.Int("tries", try+1),
				eventlog.Str("error", err.Error()))
			return err
		}
	}
}

// trySend makes one delivery attempt. Connection failures forget the
// conn (so a retry redials) and come back as retryable *SendError.
func (t *NetTransport) trySend(to string, m Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return &SendError{To: to, Kind: ErrClosed}
	}
	if h, ok := t.handlers[to]; ok {
		t.mu.Unlock()
		t.countSent(m, true)
		t.dispatch(delivery{h: h, m: m})
		return nil
	}
	c := t.learned[to]
	var dialAddr string
	if c == nil {
		tcpAddr, ok := t.routes[to]
		if !ok && looksLikeHostPort(to) {
			tcpAddr, ok = to, true
		}
		if !ok {
			t.mu.Unlock()
			return &SendError{To: to, Kind: ErrNoRoute,
				Err: fmt.Errorf("no handler or route for %q", to)}
		}
		if c = t.dialed[tcpAddr]; c == nil {
			dialAddr = tcpAddr
		}
	}
	t.mu.Unlock()

	if c == nil {
		nc, err := net.Dial("tcp", dialAddr)
		if err != nil {
			return &SendError{To: to, Kind: ErrDialFailed, Err: err}
		}
		c = NewConn(nc)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return &SendError{To: to, Kind: ErrClosed}
		}
		if prev, ok := t.dialed[dialAddr]; ok {
			// lost a dial race; use the established conn
			t.mu.Unlock()
			_ = c.Close()
			c = prev
		} else {
			if _, again := t.everDialed[dialAddr]; again {
				t.reconnects.Add(1)
				if nm := t.metrics.Load(); nm != nil {
					nm.reconnects.Inc()
				}
				t.evlog.Load().Event(eventlog.Info, "msg", "reconnect",
					eventlog.Str("node", t.host), eventlog.Str("peer", dialAddr))
			}
			t.everDialed[dialAddr] = struct{}{}
			t.dialed[dialAddr] = c
			t.conns[c] = struct{}{}
			t.wg.Add(1)
			go t.readLoop(c)
			t.mu.Unlock()
		}
	}

	f := getFrameBuf()
	frame, err := f.encode(to, m)
	if err != nil {
		putFrameBuf(f)
		return err
	}
	wire := len(frame)
	err = c.writeFrame(frame)
	putFrameBuf(f)
	if err != nil {
		t.forgetConn(c)
		return &SendError{To: to, Kind: ErrConnLost, Err: err}
	}
	t.countSent(m, false)
	if nm := t.metrics.Load(); nm != nil {
		nm.bytes.Add(uint64(wire))
	}
	return nil
}

// SeverConns abruptly closes every established connection (both dialed
// and accepted) without shutting the transport down, returning how many
// it closed. Fault injection uses it to simulate a network break; the
// next Send redials.
func (t *NetTransport) SeverConns() int {
	t.mu.Lock()
	conns := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		t.forgetConn(c)
	}
	return len(conns)
}

func (t *NetTransport) countSent(m Message, local bool) {
	t.sent.Add(1)
	nm := t.metrics.Load()
	if nm == nil {
		return
	}
	nm.sent.Inc()
	if tag, err := typeTag(m.Body); err == nil {
		if c, ok := nm.byType[tag]; ok {
			c.Inc()
		}
	}
	if local {
		// parity with Bus: local deliveries still account wire bytes
		nm.bytes.Add(frameSize(&m, true))
	}
}

func looksLikeHostPort(addr string) bool {
	return !strings.HasPrefix(addr, "/") && strings.Contains(addr, ":")
}

func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(nc)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

func (t *NetTransport) readLoop(c *Conn) {
	defer t.wg.Done()
	defer t.forgetConn(c)
	for {
		payload, err := c.recvFrame()
		if err != nil {
			t.badFrame(c, err)
			return
		}
		to, m, err := unmarshalBinaryPayload(payload, &c.intern)
		if n := c.intern.missed; n > 0 {
			c.intern.missed = 0
			if nm := t.metrics.Load(); nm != nil {
				nm.internFull.Add(n)
			}
		}
		if err != nil {
			t.dropped.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.dropped.Inc()
			}
			continue
		}
		// The frame parsed but may still be semantically malformed (a
		// violation without a pid, a directive without an action): log
		// and drop it with a counter rather than silently skipping or
		// handing a handler a message it would misbehave on.
		if err := Validate(m); err != nil {
			t.dropInvalid(to, m, err)
			continue
		}
		t.mu.Lock()
		if m.From != "" && t.learned[m.From] != c {
			t.learned[m.From] = c
		}
		h := t.handlers[to]
		if h == nil && len(t.handlers) == 1 {
			for _, only := range t.handlers {
				h = only
			}
		}
		t.mu.Unlock()
		if h == nil {
			t.dropped.Add(1)
			if nm := t.metrics.Load(); nm != nil {
				nm.dropped.Inc()
			}
			continue
		}
		t.dispatch(delivery{h: h, m: m})
	}
}

// badFrame reports why a read loop is giving up on its connection when
// the cause is the peer's bytes rather than the socket: a stream that
// does not open with the frame magic, names an unknown layout version,
// or declares an oversize payload has no frame boundary to resume from,
// so that one connection is dropped — counted and logged, never
// silently. EOF and closed-connection errors are ordinary teardown.
func (t *NetTransport) badFrame(c *Conn, err error) {
	var class string
	switch {
	case errors.Is(err, ErrNotBinary):
		class = "not_binary"
	case errors.Is(err, ErrBadVersion):
		class = "bad_version"
	case errors.Is(err, ErrFrameTooBig):
		class = "frame_too_big"
	default:
		return
	}
	if nm := t.metrics.Load(); nm != nil {
		nm.badFrame.Inc()
	}
	t.evlog.Load().Event(eventlog.Warn, "msg", "wire_bad_frame",
		eventlog.Str("node", t.host), eventlog.Str("peer", c.nc.RemoteAddr().String()),
		eventlog.Str("class", class), eventlog.Str("error", err.Error()))
}

// forgetConn drops a dead connection from every table and closes it.
func (t *NetTransport) forgetConn(c *Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	for addr, lc := range t.learned {
		if lc == c {
			delete(t.learned, addr)
		}
	}
	for addr, dc := range t.dialed {
		if dc == c {
			delete(t.dialed, addr)
		}
	}
	t.mu.Unlock()
	_ = c.Close()
}

// delivery is one inbox entry: a message for the handler it resolved
// to, or a function from Do/Sync (done, when set, is closed once fn has
// returned).
type delivery struct {
	h    func(Message)
	m    Message
	fn   func()
	done chan struct{}
}

// inbox is the dispatcher's queue: a ring of deliveries that grows by
// doubling when full and zeroes each slot as it is popped, so a
// delivered message is not kept reachable by the queue.
type inbox struct {
	buf     []delivery // len is zero or a power of two
	head, n int
}

func (q *inbox) push(d delivery) {
	if q.n == len(q.buf) {
		grown := make([]delivery, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = d
	q.n++
}

func (q *inbox) pop() delivery {
	d := q.buf[q.head]
	q.buf[q.head] = delivery{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return d
}

func (t *NetTransport) dispatch(d delivery) {
	t.dmu.Lock()
	if t.ddone {
		t.dmu.Unlock()
		return
	}
	t.inbox.push(d)
	t.dcond.Signal()
	t.dmu.Unlock()
}

func (t *NetTransport) dispatchLoop() {
	defer close(t.dexit)
	for {
		t.dmu.Lock()
		for t.inbox.n == 0 && !t.ddone {
			t.dcond.Wait()
		}
		if t.inbox.n == 0 {
			t.dmu.Unlock()
			return
		}
		d := t.inbox.pop()
		t.dmu.Unlock()
		if d.fn != nil {
			d.fn()
			if d.done != nil {
				close(d.done)
			}
			continue
		}
		t.delivered.Add(1)
		if nm := t.metrics.Load(); nm != nil {
			nm.delivered.Inc()
		}
		d.h(d.m)
	}
}

// Close shuts the node down: stops accepting, closes every connection,
// waits for read loops, then drains and stops the dispatcher.
func (t *NetTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	var err error
	if t.ln != nil {
		err = t.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	t.dmu.Lock()
	t.ddone = true
	t.dcond.Signal()
	t.dmu.Unlock()
	<-t.dexit
	return err
}
