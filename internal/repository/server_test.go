package repository

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestServerDropsOverlongRequest: a request line past maxRequestLine
// closes that connection — the server does not buffer without bound —
// and other clients keep being served.
func TestServerDropsOverlongRequest(t *testing.T) {
	dir := NewDirectory(QoSSchema())
	srv, err := ServeDirectory(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// 2 MiB with no newline. The server stops reading and hangs up past
	// the limit, so the write may fail part-way; only the hang-up matters.
	go func() { _, _ = raw.Write(bytes.Repeat([]byte("a"), 2<<20)) }()
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on the over-long connection = %v, want it closed by the server", err)
	}

	client, err := DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	svc := newTestService(t, client)
	storeExample1(t, svc, "")
	entries, err := client.Search("ou=policies,o=qos", ScopeSub, nil)
	if err != nil || len(entries) == 0 {
		t.Fatalf("second client's Search = %d entries, %v; want the stored policy", len(entries), err)
	}
}

// TestServerCloseWithIdleClient: Close returns promptly while a client
// is still connected and idle — it closes live connections rather than
// waiting for their reads.
func TestServerCloseWithIdleClient(t *testing.T) {
	srv, err := ServeDirectory(NewDirectory(QoSSchema()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// One round trip guarantees the server has accepted the connection.
	if _, err := client.Search("o=qos", ScopeBase, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1s with an idle client connected")
	}
}
