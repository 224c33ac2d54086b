package msg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Conn is a message connection over a net.Conn — the live-mode analogue
// of the prototype's management sockets. Every frame in either direction
// is the binary frame of codec.go. NetTransport runs one per peer; Dial
// gives a raw client speaking to a NetTransport node directly.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	mu sync.Mutex // serializes writes: one frame, one Write

	// Reader-goroutine state: scratch for frame payloads, and the strings
	// this connection's frames keep repeating.
	rbuf   []byte
	intern internTable
}

// NewConn wraps an established network connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc)}
}

// Dial connects to a NetTransport node listening at addr ("host:port").
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
	if err == nil {
		err = c.writeFrame(frame)
	}
	putFrameBuf(f)
	return err
}

// Recv blocks for the next message.
func (c *Conn) Recv() (Message, error) {
	payload, err := c.recvFrame()
	if err != nil {
		return Message{}, err
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

// recvFrame blocks for the next frame and returns its payload. The
// payload is read into a per-connection scratch buffer reused across
// frames (the decoder copies everything it keeps), so the steady-state
// receive path does not allocate per frame.
//
// ErrNotBinary, ErrBadVersion and ErrFrameTooBig mean the stream cannot
// be framed — there is no length to skip by — so the caller must drop
// the connection. Each is returned after reading at most the header:
// nothing is buffered on behalf of a peer that does not speak the wire.
func (c *Conn) recvFrame() ([]byte, error) {
	first, err := c.r.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != binMagic {
		return nil, fmt.Errorf("%w: first byte %#x", ErrNotBinary, first[0])
	}
	if _, err := c.r.Discard(1); err != nil { // magic
		return nil, err
	}
	version, err := c.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != binVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
