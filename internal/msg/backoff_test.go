package msg

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestBackoffDelay pins the pure retry schedule: exponential growth
// from Base, hard-capped, with attempt 0 (the initial try) free and
// jitter spreading each delay symmetrically around its nominal value.
func TestBackoffDelay(t *testing.T) {
	plain := Backoff{Base: 2 * time.Millisecond, Factor: 2, Cap: 50 * time.Millisecond, Attempts: 4}
	capped := Backoff{Base: 10 * time.Millisecond, Factor: 10, Cap: 25 * time.Millisecond, Attempts: 8}
	uncapped := Backoff{Base: time.Millisecond, Factor: 3, Attempts: 8}

	cases := []struct {
		name    string
		b       Backoff
		attempt int
		u       float64
		want    time.Duration
	}{
		{"initial try is free", plain, 0, 0.5, 0},
		{"negative attempt is free", plain, -3, 0.5, 0},
		{"first retry waits Base", plain, 1, 0, 2 * time.Millisecond},
		{"second retry doubles", plain, 2, 0, 4 * time.Millisecond},
		{"third retry doubles again", plain, 3, 0, 8 * time.Millisecond},
		{"growth stops at the cap", capped, 2, 0, 25 * time.Millisecond},
		{"stays at the cap forever", capped, 7, 0, 25 * time.Millisecond},
		{"base above cap is clamped", Backoff{Base: time.Second, Factor: 2, Cap: 30 * time.Millisecond}, 1, 0, 30 * time.Millisecond},
		{"zero cap means unbounded", uncapped, 4, 0, 27 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.b.Delay(tc.attempt, tc.u); got != tc.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}

// TestBackoffJitterBounds: with jitter J, the delay for a nominal value
// d must stay inside [d*(1-J/2), d*(1+J/2)] for every random sample,
// hitting the lower bound at u=0 and approaching the upper at u→1.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 8 * time.Millisecond, Factor: 2, Cap: time.Second, Attempts: 4, Jitter: 0.5}
	for attempt := 1; attempt <= 3; attempt++ {
		nominal := Backoff{Base: b.Base, Factor: b.Factor, Cap: b.Cap}.Delay(attempt, 0)
		lo := time.Duration(float64(nominal) * (1 - b.Jitter/2))
		hi := time.Duration(float64(nominal) * (1 + b.Jitter/2))
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			got := b.Delay(attempt, u)
			if got < lo || got > hi {
				t.Errorf("attempt %d, u=%v: delay %v outside jitter bounds [%v, %v]", attempt, u, got, lo, hi)
			}
		}
		if got := b.Delay(attempt, 0); got != lo {
			t.Errorf("attempt %d: u=0 should pin the lower bound %v, got %v", attempt, lo, got)
		}
	}
}

// TestBackoffExhausted pins the give-up rule: Attempts counts total
// tries including the first, and a non-positive Attempts still allows
// exactly one try.
func TestBackoffExhausted(t *testing.T) {
	cases := []struct {
		name     string
		attempts int
		tries    int
		want     bool
	}{
		{"first try always allowed", 4, 0, false},
		{"mid-schedule", 4, 3, false},
		{"limit reached", 4, 4, true},
		{"past the limit", 4, 9, true},
		{"zero attempts means single try", 0, 1, true},
		{"zero attempts allows the first", 0, 0, false},
		{"negative attempts means single try", -2, 1, true},
	}
	for _, tc := range cases {
		b := Backoff{Attempts: tc.attempts}
		if got := b.Exhausted(tc.tries); got != tc.want {
			t.Errorf("%s: Exhausted(%d) with Attempts=%d = %v, want %v", tc.name, tc.tries, tc.attempts, got, tc.want)
		}
	}
}

// TestSendErrorClassification: only transient connection failures are
// retryable; routing and validation failures are permanent.
func TestSendErrorClassification(t *testing.T) {
	retryable := map[SendErrorKind]bool{
		ErrNoRoute:    false,
		ErrClosed:     false,
		ErrConnLost:   true,
		ErrDialFailed: true,
		ErrInvalid:    false,
	}
	for kind, want := range retryable {
		e := &SendError{To: "/x", Kind: kind}
		if got := e.Retryable(); got != want {
			t.Errorf("Retryable(%s) = %v, want %v", kind, got, want)
		}
	}

	cause := errors.New("connection refused")
	e := &SendError{To: "/host/addr", Kind: ErrDialFailed, Err: cause}
	if !errors.Is(e, cause) {
		t.Error("SendError does not unwrap to its cause")
	}
	if s := e.Error(); !strings.Contains(s, "/host/addr") || !strings.Contains(s, "dial_failed") || !strings.Contains(s, "connection refused") {
		t.Errorf("Error() = %q missing address, kind, or cause", s)
	}
	if s := (&SendError{To: "/x", Kind: ErrClosed}).Error(); !strings.Contains(s, "closed") {
		t.Errorf("Error() without cause = %q", s)
	}
}

// TestNetTransportRetriesThroughRestart: a send to a peer that is down
// fails with a typed retryable error and counts its attempts; once the
// peer returns on the same port the next send redials, succeeds, and
// the reconnect is counted.
func TestNetTransportRetriesThroughRestart(t *testing.T) {
	srv, err := NewNetTransport("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var got int
	srv.Bind("/srv/sink", "srv", func(Message) { got++ })
	addr := srv.Addr()

	cli, err := NewNetTransport("cli", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Route("/srv/sink", addr)

	ok := Message{From: "/cli/src", Body: Ack{Ref: "r"}}
	if err := cli.Send("/srv/sink", ok); err != nil {
		t.Fatalf("send to live peer: %v", err)
	}

	// Peer dies and the established connection goes with it: the send
	// redials, tries DefaultBackoff.Attempts times against the closed
	// port, then surfaces a typed, retryable error. (Severing the cached
	// connection makes the failure deterministic — a write into a
	// half-closed TCP buffer could otherwise "succeed".)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	cli.SeverConns()
	err = cli.Send("/srv/sink", ok)
	if err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	var se *SendError
	if !errors.As(err, &se) {
		t.Fatalf("send to dead peer returned untyped error %T: %v", err, err)
	}
	if !se.Retryable() {
		t.Errorf("error kind %s not retryable — callers cannot ride out a restart", se.Kind)
	}
	retries, _, sendFailed := cli.Resilience()
	if want := uint64(DefaultBackoff.Attempts - 1); retries != want {
		t.Errorf("retries = %d, want %d (%d attempts)", retries, want, DefaultBackoff.Attempts)
	}
	if sendFailed != 1 {
		t.Errorf("send_failed = %d, want 1", sendFailed)
	}

	// Peer restarts on the same port: the next send redials and is
	// counted as a reconnect.
	srv2, err := NewNetTransport("srv", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	delivered := make(chan struct{}, 1)
	srv2.Bind("/srv/sink", "srv", func(Message) {
		select {
		case delivered <- struct{}{}:
		default:
		}
	})
	if err := cli.Send("/srv/sink", ok); err != nil {
		t.Fatalf("send after peer restart: %v", err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("message never reached the restarted peer")
	}
	if _, reconnects, _ := cli.Resilience(); reconnects == 0 {
		t.Error("redial of a previously-dialed peer not counted as a reconnect")
	}
}
