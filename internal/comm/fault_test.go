package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// flaky wraps a Transport and fails every Send after the first failAfter.
type flaky struct {
	Transport
	mu        sync.Mutex
	failAfter int
	sends     int
}

var errInjected = errors.New("injected send failure")

func (f *flaky) Send(to int, typ uint16, payload []byte) error {
	f.mu.Lock()
	f.sends++
	fail := f.sends > f.failAfter
	f.mu.Unlock()
	if fail {
		return errInjected
	}
	return f.Transport.Send(to, typ, payload)
}

// TestAbortUnblocksPeers is the liveness property the cluster relies on: if
// one rank dies mid-collective and aborts, peers blocked in Recv return
// ErrClosed instead of hanging.
func TestAbortUnblocksPeers(t *testing.T) {
	ts, err := NewLocalGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 2)
	for _, rank := range []int{1, 2} {
		go func(rank int) {
			_, err := NewComm(ts[rank]).AllReduceI64(1, OpSum)
			results <- err
		}(rank)
	}
	// Let both block inside the collective. Either order passes: the
	// collective needs rank 0, so an Abort that comes first fails it too.
	time.Sleep(20 * time.Millisecond)
	Abort(ts[0]) // rank 0 "dies" without participating
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("collective succeeded without rank 0")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("peer still blocked after abort")
		}
	}
}

// TestAbortIsNoOpForUnsupportedTransports documents the helper's contract.
func TestAbortIsNoOpForUnsupportedTransports(t *testing.T) {
	ts, _ := NewLocalGroup(1)
	Abort(&flaky{Transport: ts[0]}) // flaky does not implement Aborter
	if err := ts[0].Send(0, TypeUser, nil); err != nil {
		t.Fatalf("transport was torn down through a non-aborter wrapper: %v", err)
	}
}

// TestCollectiveSendFailurePropagates injects a transport fault under a
// collective: the failing rank must get the injected error and — after it
// aborts, the pattern cluster.Execute and cluster.SPMD implement — every
// other rank must terminate (with the data it already collected or with
// ErrClosed), never hang.
func TestCollectiveSendFailurePropagates(t *testing.T) {
	for _, failAfter := range []int{0, 1} {
		ts, err := NewLocalGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := []Transport{&flaky{Transport: ts[0], failAfter: failAfter}, ts[1], ts[2]}
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for rank := 0; rank < 3; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				_, err := NewComm(wrapped[rank]).AllGather([]byte{byte(rank)})
				errs[rank] = err
				if err != nil {
					Abort(ts[rank]) // abort the underlying group
				}
			}(rank)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("failAfter=%d: collective deadlocked after injected failure", failAfter)
		}
		if !errors.Is(errs[0], errInjected) {
			t.Fatalf("failAfter=%d: rank 0 error = %v, want injected", failAfter, errs[0])
		}
	}
}

// TestTCPHalfOpenConnectionReaped connects to a rank whose mesh is still
// forming and sends nothing: the rank must cut the connection once the
// handshake deadline passes instead of holding it open forever. Meanwhile
// a hello from a rank that must not dial it is closed unanswered without
// waiting on the silent connection, and the real peer can still join.
func TestTCPHalfOpenConnectionReaped(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	trCh := make(chan Transport, 1)
	errCh := make(chan error, 1)
	go func() {
		tr, err := formMesh(lns[0], 0, addrs, time.Now().Add(3*handshakeTimeout+5*time.Second))
		if err != nil {
			errCh <- err
			return
		}
		trCh <- tr
	}()
	// closedWithin requires conn to be closed, unanswered, within d.
	closedWithin := func(conn net.Conn, d time.Duration, what string) {
		conn.SetReadDeadline(time.Now().Add(d))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatalf("%s received data", what)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s was not closed within %v", what, d)
		}
	}
	silent := dialListening(t, addrs[0])
	defer silent.Close()
	refused := dialListening(t, addrs[0])
	defer refused.Close()
	if err := writeHello(refused, 0, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	closedWithin(refused, handshakeTimeout/2, "hello from rank 0 to rank 0")
	closedWithin(silent, handshakeTimeout+2*time.Second, "half-open connection")

	tr1, err := formMesh(lns[1], 1, addrs, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatalf("rank 1 after the refused connections: %v", err)
	}
	defer tr1.Close()
	select {
	case tr0 := <-trCh:
		tr0.Close()
	case err := <-errCh:
		t.Fatalf("rank 0 after the refused connections: %v", err)
	}
}

// TestTCPRejectsBogusHandshake connects a raw socket claiming an invalid
// rank: the mesh setup must fail rather than accept the impostor.
func TestTCPRejectsBogusHandshake(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := formMesh(lns[0], 0, addrs, time.Now().Add(2*time.Second))
		done <- err
	}()
	// Impersonate rank 1 with a bogus rank id in the handshake.
	conn := dialListening(t, addrs[0])
	defer conn.Close()
	if err := writeHello(conn, 99, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("mesh accepted a bogus peer rank")
	}
}

// TestTCPGarbageStreamClosesInbox feeds a valid handshake followed by a
// corrupt frame (wrong sender id): the reader must shut the inbox down, so
// pending Recv calls fail instead of delivering garbage.
func TestTCPGarbageStreamClosesInbox(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	trCh := make(chan Transport, 1)
	errCh := make(chan error, 1)
	go func() {
		tr, err := formMesh(lns[0], 0, addrs, time.Now().Add(2*time.Second))
		if err != nil {
			errCh <- err
			return
		}
		trCh <- tr
	}()
	conn := dialListening(t, addrs[0])
	defer conn.Close()
	// Legitimate handshake as rank 1.
	if err := writeHello(conn, 1, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if st, err := readStatus(conn, time.Now().Add(2*time.Second)); err != nil || st != hsOK {
		t.Fatalf("handshake status %d, err %v", st, err)
	}
	var tr Transport
	select {
	case tr = <-trCh:
	case err := <-errCh:
		t.Fatalf("mesh setup: %v", err)
	case <-time.After(3 * time.Second):
		t.Fatal("mesh setup timed out")
	}
	defer tr.Close()

	// Frame header claiming to be from rank 7 (must be 1): reader bails.
	frame := make([]byte, 10+3)
	binary.LittleEndian.PutUint32(frame[0:], 3) // payload len
	binary.LittleEndian.PutUint16(frame[4:], 1) // type
	binary.LittleEndian.PutUint32(frame[6:], 7) // bogus sender
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan error, 1)
	go func() {
		_, err := tr.Recv(TypeUser)
		recvDone <- err
	}()
	select {
	case err := <-recvDone:
		if err == nil {
			t.Fatal("garbage frame delivered as a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after garbage frame")
	}
}

// TestCloseIdempotentDuringExchange is the shutdown-path regression test:
// Close must be idempotent and safe to race against itself, Abort, and an
// in-flight streaming exchange — no panic, no deadlock, and every
// operation after the close reports ErrClosed instead of delivering into a
// dismantled endpoint. Before this guard, double-close in shutdown paths
// was only avoided by test ordering.
func TestCloseIdempotentDuringExchange(t *testing.T) {
	groups := map[string]func() []Transport{
		"local": func() []Transport {
			ts, err := NewLocalGroup(3)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		},
		"tcp": func() []Transport { return dialMesh(t, 3) },
	}
	for name, mk := range groups {
		t.Run(name, func(t *testing.T) {
			ts := mk()
			// Rank 1 blocks mid-exchange (its peers send nothing), then gets
			// closed out from under the drain.
			finishErr := make(chan error, 1)
			go func() {
				x := NewComm(ts[1]).StartExchange()
				_ = x.SendChunk(0, []byte("in flight"))
				finishErr <- x.Finish(func(int, []byte) error { return nil })
			}()
			// Let Finish block in Recv. Either order passes: a Finish that
			// starts after the close fails on the closed transport too.
			time.Sleep(10 * time.Millisecond)
			// Concurrent double close from several goroutines, racing Abort.
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i == 3 {
						Abort(ts[1])
						return
					}
					ts[1].Close()
				}(i)
			}
			wg.Wait()
			select {
			case err := <-finishErr:
				if err == nil {
					t.Fatal("Finish succeeded on a closed transport")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Finish still blocked after close")
			}
			// Every later operation fails cleanly; a second Close round is a
			// no-op.
			if err := ts[1].Close(); err != nil && name == "local" {
				t.Fatalf("repeated close: %v", err)
			}
			if _, err := ts[1].Recv(TypeUser); err == nil {
				t.Fatal("Recv delivered after close")
			}
			for _, tr := range ts {
				tr.Close()
			}
		})
	}
}

// TestLocalSendAfterPeerCloseIsDropped pins the drop-after-close rule: a
// message sent to a closed peer is discarded, not queued for a Recv that
// can only ever return ErrClosed.
func TestLocalSendAfterPeerCloseIsDropped(t *testing.T) {
	ts, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	ts[1].Close()
	if err := ts[0].Send(1, TypeUser, []byte("late")); err != nil {
		t.Fatalf("send to closed peer errored at the sender: %v", err)
	}
	if _, err := ts[1].Recv(TypeUser); err != ErrClosed {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
}

// TestAbortTCP verifies the TCP Aborter path end to end.
func TestAbortTCP(t *testing.T) {
	ts := dialMesh(t, 2)
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	recvDone := make(chan error, 1)
	go func() {
		_, err := ts[1].Recv(TypeUser)
		recvDone <- err
	}()
	// Let the Recv block. Either order passes: rank 1's reader closes its
	// inbox on rank 0's abort, so a Recv that starts later fails too.
	time.Sleep(10 * time.Millisecond)
	Abort(ts[0])
	select {
	case err := <-recvDone:
		if err == nil {
			t.Fatal("Recv returned a message after abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer Recv still blocked after TCP abort")
	}
}

// dialListening connects to addr, retrying until a DialTCP in another
// goroutine has bound it. A deadline-bounded poll: only liveness depends on
// when the listener appears.
func dialListening(t *testing.T, addr string) net.Conn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
