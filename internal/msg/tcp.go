package msg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"softqos/internal/telemetry"
)

// tcpMetrics holds the TCP transport's pre-resolved metric handles,
// shared by every connection attached to the same registry.
type tcpMetrics struct {
	sent      *telemetry.Counter
	received  *telemetry.Counter
	sentBytes *telemetry.Counter
	recvBytes *telemetry.Counter
	byType    map[string]*telemetry.Counter
}

func newTCPMetrics(reg *telemetry.Registry) *tcpMetrics {
	m := &tcpMetrics{
		sent:      reg.Counter("msg.tcp.sent"),
		received:  reg.Counter("msg.tcp.received"),
		sentBytes: reg.Counter("msg.tcp.sent_bytes"),
		recvBytes: reg.Counter("msg.tcp.recv_bytes"),
		byType:    make(map[string]*telemetry.Counter, len(typeTags)),
	}
	for _, tag := range typeTags {
		m.byType[tag] = reg.Counter("msg.tcp.sent." + tag)
	}
	return m
}

// Conn is a message connection over a net.Conn — the live-mode analogue
// of the prototype's management sockets. Every frame in either direction
// is the binary frame of codec.go.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	mu sync.Mutex // serializes writes: one frame, one Write

	// Reader-goroutine state: scratch for frame payloads, and the strings
	// this connection's frames keep repeating.
	rbuf   []byte
	intern internTable

	metrics atomic.Pointer[tcpMetrics]
}

// SetMetrics attaches the connection to a metrics registry (counters
// under "msg.tcp.*"). Safe to call concurrently with Send/Recv.
func (c *Conn) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		c.metrics.Store(nil)
		return
	}
	c.metrics.Store(newTCPMetrics(reg))
}

// NewConn wraps an established network connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc)}
}

// Dial connects to a message server at addr ("host:port").
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Send writes one message as a frame. The frame is encoded into a
// pooled buffer, so the steady-state send path does not allocate.
func (c *Conn) Send(m Message) error {
	f := getFrameBuf()
	frame, err := f.encode("", m)
	wire := len(frame)
	if err == nil {
		err = c.writeFrame(frame)
	}
	putFrameBuf(f)
	if err != nil {
		return err
	}
	if tm := c.metrics.Load(); tm != nil {
		tm.sent.Inc()
		tm.sentBytes.Add(uint64(wire))
		if tag, err := typeTag(m.Body); err == nil {
			if ctr, ok := tm.byType[tag]; ok {
				ctr.Inc()
			}
		}
	}
	return nil
}

// Recv blocks for the next message.
func (c *Conn) Recv() (Message, error) {
	payload, wire, err := c.recvFrame()
	if err != nil {
		return Message{}, err
	}
	if tm := c.metrics.Load(); tm != nil {
		tm.received.Inc()
		tm.recvBytes.Add(uint64(wire))
	}
	_, m, err := unmarshalBinaryPayload(payload, &c.intern)
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// writeFrame hands one encoded frame to the socket in a single Write.
func (c *Conn) writeFrame(frame []byte) error {
	c.mu.Lock()
	_, err := c.nc.Write(frame)
	c.mu.Unlock()
	return err
}

// recvFrame blocks for the next frame and returns its payload plus the
// total wire bytes consumed including the header (for byte accounting).
// The payload is read into a per-connection scratch buffer reused across
// frames (the decoder copies everything it keeps), so the steady-state
// receive path does not allocate per frame.
//
// ErrNotBinary, ErrBadVersion and ErrFrameTooBig mean the stream cannot
// be framed — there is no length to skip by — so the caller must drop
// the connection. Each is returned after reading at most the header:
// nothing is buffered on behalf of a peer that does not speak the wire.
func (c *Conn) recvFrame() (payload []byte, wire int, err error) {
	first, err := c.r.Peek(1)
	if err != nil {
		return nil, 0, err
	}
	if first[0] != binMagic {
		return nil, 0, fmt.Errorf("%w: first byte %#x", ErrNotBinary, first[0])
	}
	if _, err := c.r.Discard(1); err != nil { // magic
		return nil, 0, err
	}
	version, err := c.r.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	if version != binVersion {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, 0, err
	}
	if n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	payload = c.rbuf[:n]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, 0, err
	}
	return payload, 2 + uvarintLen(n) + int(n), nil
}

// uvarintLen returns how many bytes binary.AppendUvarint uses for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Server accepts message connections and dispatches inbound messages to a
// handler. The handler may use the supplied connection to reply.
type Server struct {
	ln      net.Listener
	handler func(*Conn, Message)
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[*Conn]struct{}
	tm     *tcpMetrics
}

// SetMetrics attaches the server to a metrics registry: every current and
// future accepted connection records under "msg.tcp.*".
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	var tm *tcpMetrics
	if reg != nil {
		tm = newTCPMetrics(reg)
	}
	s.mu.Lock()
	s.tm = tm
	for c := range s.conns {
		c.metrics.Store(tm)
	}
	s.mu.Unlock()
}

// Serve starts a message server on addr (use "127.0.0.1:0" for an
// ephemeral port) dispatching each inbound message to handler, which runs
// on the connection's reader goroutine.
func Serve(addr string, handler func(*Conn, Message)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		c.metrics.Store(s.tm)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(c)
	}
}

func (s *Server) readLoop(c *Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		s.handler(c, m)
	}
}

// Close stops accepting, closes all connections and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
