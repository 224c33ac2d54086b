package repository

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"softqos/internal/msg"
)

// maxRequestLine bounds one JSON request line, as msg.MaxFrameBytes
// bounds a management frame: a client that never sends a newline costs
// at most this much buffering before its connection is closed.
const maxRequestLine = msg.MaxFrameBytes

var errRequestTooLong = errors.New("repository: request line over the size limit")

// wireEntry is the JSON form of an Entry.
type wireEntry struct {
	DN    string              `json:"dn"`
	Attrs map[string][]string `json:"attrs"`
}

func toWire(e *Entry) wireEntry {
	w := wireEntry{DN: string(e.DN), Attrs: make(map[string][]string)}
	for _, a := range e.Attributes() {
		w.Attrs[a] = e.GetAll(a)
	}
	return w
}

func fromWire(w wireEntry) *Entry {
	e := NewEntry(DN(w.DN))
	for k, vs := range w.Attrs {
		e.Set(k, vs...)
	}
	return e
}

type wireMod struct {
	Op     int      `json:"op"`
	Attr   string   `json:"attr"`
	Values []string `json:"values,omitempty"`
}

type request struct {
	Op     string     `json:"op"` // add, modify, modattrs, delete, deltree, search, parents, push, rollout, rollback
	Entry  *wireEntry `json:"entry,omitempty"`
	DNs    string     `json:"dn,omitempty"`
	Base   string     `json:"base,omitempty"`
	Scope  int        `json:"scope,omitempty"`
	Filter string     `json:"filter,omitempty"`
	Mods   []wireMod  `json:"mods,omitempty"`

	// Rollout ops (push, rollback).
	Text   string `json:"text,omitempty"` // policy source (push)
	App    string `json:"app,omitempty"`
	Exe    string `json:"exe,omitempty"`
	Role   string `json:"role,omitempty"`
	Reason string `json:"reason,omitempty"` // rollback cause
}

type response struct {
	OK      bool            `json:"ok"`
	Err     string          `json:"err,omitempty"`
	Entries []wireEntry     `json:"entries,omitempty"`
	Count   int             `json:"count,omitempty"`
	Rollout *RolloutStatus  `json:"rollout,omitempty"`
	History []RolloutStatus `json:"history,omitempty"`
}

// Server exposes a Directory over TCP with a JSON-lines protocol — the
// live analogue of the prototype's LDAP server.
type Server struct {
	dir *Directory
	ln  net.Listener
	wg  sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	rollout *Controller
}

// ServeDirectory starts serving dir on addr ("127.0.0.1:0" for an
// ephemeral port).
func ServeDirectory(dir *Directory, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repository: listen %s: %w", addr, err)
	}
	s := &Server{dir: dir, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetRollout attaches a canary rollout controller, enabling the push,
// rollout (status) and rollback ops. Without one those ops fail with an
// explanatory error.
func (s *Server) SetRollout(c *Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollout = c
}

func (s *Server) rolloutController() *Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollout
}

// Close stops accepting, closes every live connection — a connected
// client's pending read must not hold it open — and waits for the
// connection goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, nc := range conns {
		_ = nc.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close()
	}()
	r := bufio.NewReader(nc)
	w := bufio.NewWriter(nc)
	enc := json.NewEncoder(w)
	var line []byte
	for {
		var err error
		line, err = readLine(r, line[:0])
		if err != nil {
			return // EOF, a closed connection, or an over-long request
		}
		var req request
		resp := response{OK: true}
		if err := json.Unmarshal(line, &req); err != nil {
			resp = response{Err: "bad request: " + err.Error()}
		} else {
			resp = s.handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// readLine appends the next newline-terminated line from r to buf,
// failing with errRequestTooLong once it passes maxRequestLine bytes.
func readLine(r *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := r.ReadSlice('\n')
		if len(buf)+len(frag) > maxRequestLine {
			return nil, errRequestTooLong
		}
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

func (s *Server) handle(req request) response {
	fail := func(err error) response { return response{Err: err.Error()} }
	switch req.Op {
	case "add":
		if req.Entry == nil {
			return fail(fmt.Errorf("add: missing entry"))
		}
		if err := s.dir.Add(fromWire(*req.Entry)); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "modify":
		if req.Entry == nil {
			return fail(fmt.Errorf("modify: missing entry"))
		}
		if err := s.dir.Modify(fromWire(*req.Entry)); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "modattrs":
		mods := make([]Mod, len(req.Mods))
		for i, m := range req.Mods {
			mods[i] = Mod{Op: ModOp(m.Op), Attr: m.Attr, Values: m.Values}
		}
		if err := s.dir.ModifyAttrs(DN(req.DNs), mods...); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "delete":
		if err := s.dir.Delete(DN(req.DNs)); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "deltree":
		n := s.dir.DeleteTree(DN(req.DNs))
		return response{OK: true, Count: n}
	case "parents":
		if err := s.dir.EnsureParents(DN(req.DNs)); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "search":
		var f Filter
		if req.Filter != "" {
			var err error
			if f, err = ParseFilter(req.Filter); err != nil {
				return fail(err)
			}
		}
		entries := s.dir.Search(DN(req.Base), Scope(req.Scope), f)
		out := make([]wireEntry, len(entries))
		for i, e := range entries {
			out[i] = toWire(e)
		}
		return response{OK: true, Entries: out, Count: len(out)}
	case "push":
		ctl := s.rolloutController()
		if ctl == nil {
			return fail(fmt.Errorf("push: no rollout controller attached to this repository"))
		}
		st, err := ctl.Push(req.Text, PolicyMeta{Application: req.App, Executable: req.Exe, UserRole: req.Role})
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Rollout: &st}
	case "rollout":
		ctl := s.rolloutController()
		if ctl == nil {
			return fail(fmt.Errorf("rollout: no rollout controller attached to this repository"))
		}
		resp := response{OK: true, History: ctl.History()}
		if st, ok := ctl.Status(); ok {
			resp.Rollout = &st
		}
		return resp
	case "rollback":
		ctl := s.rolloutController()
		if ctl == nil {
			return fail(fmt.Errorf("rollback: no rollout controller attached to this repository"))
		}
		st, err := ctl.Rollback(req.Reason)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Rollout: &st}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// Client talks to a repository Server. It implements Store.
type Client struct {
	mu  sync.Mutex
	nc  net.Conn
	r   *bufio.Reader
	enc *json.Encoder
	w   *bufio.Writer
}

// DialDirectory connects to a repository server.
func DialDirectory(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repository: dial %s: %w", addr, err)
	}
	w := bufio.NewWriter(nc)
	return &Client{nc: nc, r: bufio.NewReader(nc), w: w, enc: json.NewEncoder(w)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

func (c *Client) roundTrip(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return response{}, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		return response{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("repository: %s", resp.Err)
	}
	return resp, nil
}

// Add implements Store.
func (c *Client) Add(e *Entry) error {
	w := toWire(e)
	_, err := c.roundTrip(request{Op: "add", Entry: &w})
	return err
}

// Modify implements Store.
func (c *Client) Modify(e *Entry) error {
	w := toWire(e)
	_, err := c.roundTrip(request{Op: "modify", Entry: &w})
	return err
}

// Delete implements Store.
func (c *Client) Delete(dn DN) error {
	_, err := c.roundTrip(request{Op: "delete", DNs: string(dn)})
	return err
}

// DeleteTree implements Store.
func (c *Client) DeleteTree(dn DN) (int, error) {
	resp, err := c.roundTrip(request{Op: "deltree", DNs: string(dn)})
	return resp.Count, err
}

// EnsureParents implements Store.
func (c *Client) EnsureParents(dn DN) error {
	_, err := c.roundTrip(request{Op: "parents", DNs: string(dn)})
	return err
}

// Search implements Store.
func (c *Client) Search(base DN, scope Scope, f Filter) ([]*Entry, error) {
	req := request{Op: "search", Base: string(base), Scope: int(scope)}
	if f != nil {
		req.Filter = f.String()
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	out := make([]*Entry, len(resp.Entries))
	for i, w := range resp.Entries {
		out[i] = fromWire(w)
	}
	return out, nil
}

// Push starts a canary rollout of the policy source text on the remote
// repository (requires the server to have a rollout controller).
func (c *Client) Push(text string, meta PolicyMeta) (RolloutStatus, error) {
	resp, err := c.roundTrip(request{Op: "push", Text: text,
		App: meta.Application, Exe: meta.Executable, Role: meta.UserRole})
	if err != nil {
		return RolloutStatus{}, err
	}
	if resp.Rollout == nil {
		return RolloutStatus{}, fmt.Errorf("repository: push returned no rollout status")
	}
	return *resp.Rollout, nil
}

// RolloutStatus returns the current (or most recently decided) rollout
// and the decision history.
func (c *Client) RolloutStatus() (*RolloutStatus, []RolloutStatus, error) {
	resp, err := c.roundTrip(request{Op: "rollout"})
	if err != nil {
		return nil, nil, err
	}
	return resp.Rollout, resp.History, nil
}

// Rollback aborts the baking rollout on the remote repository.
func (c *Client) Rollback(reason string) (RolloutStatus, error) {
	resp, err := c.roundTrip(request{Op: "rollback", Reason: reason})
	if err != nil {
		return RolloutStatus{}, err
	}
	if resp.Rollout == nil {
		return RolloutStatus{}, fmt.Errorf("repository: rollback returned no rollout status")
	}
	return *resp.Rollout, nil
}

var _ Store = (*Client)(nil)
var _ Store = LocalStore{}
