package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// A -root past |V| is refused with the valid range, including one that
// truncates to an in-range 32-bit id (2^32 would otherwise register vertex
// 0); the default root 0 still passes over an empty graph.
func TestRootOutOfRangeIsRefused(t *testing.T) {
	for _, root := range []uint64{1 << 32, 1<<32 + 3, 99999999, 100} {
		if _, err := rootID(root, 100); err == nil || !strings.Contains(err.Error(), "[0, 100)") {
			t.Errorf("root %d over 100 vertices: err %v, want one naming [0, 100)", root, err)
		}
	}
	for _, c := range []struct {
		root uint64
		n    int
	}{{0, 0}, {0, 100}, {99, 100}} {
		if id, err := rootID(c.root, c.n); err != nil || uint64(id) != c.root {
			t.Errorf("root %d over %d vertices: got %d, %v", c.root, c.n, id, err)
		}
	}
}

// The daemon's listener must carry read/idle deadlines: without them one
// slow client holds a connection (and eventually a file descriptor pool)
// forever.
func TestServerHasConnectionTimeouts(t *testing.T) {
	srv := newServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris headers hold connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: slow request bodies hold connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections are never reaped")
	}
}

// A client that opens a connection and never finishes its headers must be
// disconnected once ReadHeaderTimeout elapses (tightened here so the test
// is fast; the enforcement path is the same).
func TestSlowClientIsDisconnected(t *testing.T) {
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	srv.ReadTimeout = 150 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble an incomplete request and stall: never send the final CRLF.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // server gave up on us: connection closed (or reset)
		}
	}
}
