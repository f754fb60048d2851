package comm

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// joinAll forms one epoch concurrently over the given nodes and returns the
// transports indexed like members.
func joinAll(t *testing.T, nodes []*MeshNode, epoch uint32, members []int) []Transport {
	t.Helper()
	ts := make([]Transport, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, id := range members {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			ts[i], errs[i] = nodes[id].Join(epoch, members, 5*time.Second)
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d join: %v", members[i], err)
		}
	}
	return ts
}

func closeAll(ts []Transport) {
	for _, tr := range ts {
		if tr != nil {
			tr.Close()
		}
	}
}

func TestMeshJoinAcrossEpochs(t *testing.T) {
	nodes, _, err := NewLoopbackMeshNodes(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	ts := joinAll(t, nodes, 0, []int{0, 1, 2})
	if err := ts[0].Send(2, TypeUser, []byte("epoch0")); err != nil {
		t.Fatal(err)
	}
	if m, err := ts[2].Recv(TypeUser); err != nil || string(m.Payload) != "epoch0" || m.From != 0 {
		t.Fatalf("epoch 0 delivery: %v %v", m, err)
	}
	closeAll(ts)

	// The same nodes re-form as a shrunk epoch 1 (node 2 left behind).
	ts = joinAll(t, nodes, 1, []int{0, 1})
	if ts[0].Size() != 2 || ts[1].Rank() != 1 {
		t.Fatalf("epoch 1 shape: size=%d rank=%d", ts[0].Size(), ts[1].Rank())
	}
	if err := ts[1].Send(0, TypeUser, []byte("epoch1")); err != nil {
		t.Fatal(err)
	}
	if m, err := ts[0].Recv(TypeUser); err != nil || string(m.Payload) != "epoch1" {
		t.Fatalf("epoch 1 delivery: %v %v", m, err)
	}
	closeAll(ts)
}

func TestMeshEpochMustAdvance(t *testing.T) {
	nodes, _, err := NewLoopbackMeshNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ts := joinAll(t, nodes, 3, []int{0, 1})
	closeAll(ts)
	if _, err := nodes[0].Join(3, []int{0, 1}, time.Second); err == nil {
		t.Fatal("re-joining the same epoch succeeded")
	}
	if _, err := nodes[0].Join(2, []int{0, 1}, time.Second); err == nil {
		t.Fatal("joining a past epoch succeeded")
	}
}

func TestMeshStaleEpochRejected(t *testing.T) {
	nodes, _, err := NewLoopbackMeshNodes(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ts := joinAll(t, nodes, 0, []int{0, 1, 2})
	closeAll(ts)
	// Nodes 0 and 1 move on to epoch 2; node 2 stays at epoch 0.
	ts = joinAll(t, nodes, 2, []int{0, 1})
	defer closeAll(ts)
	// Node 2 dials in with epoch 1 — behind the mesh — and must be told so
	// instead of hanging in a retry loop.
	_, err = nodes[2].Join(1, []int{0, 1, 2}, 5*time.Second)
	if err == nil {
		t.Fatal("stale-epoch join succeeded")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale-epoch join failed with %v, want a stale verdict", err)
	}
}

func TestMeshHalfOpenConnectionReaped(t *testing.T) {
	nodes, addrs, err := NewLoopbackMeshNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Close()
	// Connect and send nothing: the node must cut the connection once the
	// handshake deadline passes instead of holding it open forever.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout + 2*time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("half-open connection received data")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("half-open connection was not reaped within the handshake deadline")
	}
}

// TestMeshRefusesUnknownHelloKind dials a node with a well-formed hello of
// kind 1, a kind the mesh does not speak: the node must close the
// connection without answering a status byte, and still form an epoch
// afterwards.
func TestMeshRefusesUnknownHelloKind(t *testing.T) {
	nodes, addrs, err := NewLoopbackMeshNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(handshakeTimeout + 2*time.Second)
	if err := writeHello(conn, 1, 0, 1, deadline); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(deadline)
	var b [1]byte
	if n, err := conn.Read(b[:]); n > 0 {
		t.Fatalf("unknown hello kind answered with status %d", b[0])
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection with an unknown hello kind was held open")
	}

	ts := joinAll(t, nodes, 0, []int{0, 1})
	defer closeAll(ts)
	if err := ts[1].Send(0, TypeUser, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if m, err := ts[0].Recv(TypeUser); err != nil || string(m.Payload) != "after" {
		t.Fatalf("delivery after a refused hello: %v %v", m, err)
	}
}

func TestMeshResilientPeerDeath(t *testing.T) {
	nodes, _, err := NewLoopbackMeshNodes(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ts := joinAll(t, nodes, 0, []int{0, 1, 2})
	defer closeAll(ts)
	// Rank 2 dies. The survivors' transports must stay alive: sends to the
	// dead rank vanish silently and traffic between survivors still flows.
	ts[2].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := ts[0].Send(2, TypeUser, []byte("into the void")); err != nil {
			t.Fatalf("send to dead peer errored: %v", err)
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := ts[0].Send(1, TypeUser, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if m, err := ts[1].Recv(TypeUser); err != nil || string(m.Payload) != "still here" {
		t.Fatalf("survivor delivery after peer death: %v %v", m, err)
	}
}

func TestMeshAbortPropagates(t *testing.T) {
	nodes, _, err := NewLoopbackMeshNodes(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ts := joinAll(t, nodes, 0, []int{0, 1, 2})
	defer closeAll(ts)
	unblocked := make(chan error, 2)
	for _, tr := range []Transport{ts[1], ts[2]} {
		go func(tr Transport) {
			_, err := tr.Recv(TypeUser)
			unblocked <- err
		}(tr)
	}
	Abort(ts[0])
	for i := 0; i < 2; i++ {
		select {
		case err := <-unblocked:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("aborted Recv returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort broadcast did not unblock a peer")
		}
	}
	if err := ts[0].Send(1, TypeUser, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after abort returned %v, want ErrClosed", err)
	}
}
