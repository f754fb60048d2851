// Reconnectable TCP mesh with shrinking membership. A MeshNode is one
// rank's long-lived network identity: a persistent listener plus the
// handshake logic that admits peers into membership epochs. DialTCP uses a
// node for one epoch and drops it; the recovery driver keeps it across
// epochs: the surviving ranks of a failure form a new (shrunk) mesh with a
// higher epoch number, and a dead rank's node is simply closed. Stale-epoch
// connections are rejected by the handshake, a hello of any kind but a mesh
// peer's is refused, and half-open connections are reaped by a read
// deadline.
package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// MeshNode is one rank's persistent mesh endpoint. The node's identity is
// its original rank id, which never changes; its rank within a membership
// epoch is its position in that epoch's member list.
type MeshNode struct {
	id    int
	addrs []string
	ln    net.Listener

	mu        sync.Mutex
	lastEpoch int64 // highest successfully joined epoch; -1 before any Join
	pending   *joinState
	inflight  map[net.Conn]struct{} // connections mid-handshake, closed on Close
	closed    bool

	wg sync.WaitGroup // accept loop + handshake goroutines
}

// joinState is the collector for an in-progress Join: the accept side hands
// validated epoch connections to the joining goroutine through conns.
type joinState struct {
	epoch  uint32
	rankOf map[int]int // original id -> epoch rank
	myRank int
	conns  chan meshConn
}

type meshConn struct {
	rank int // peer's epoch rank
	conn net.Conn
}

// ListenMesh binds original rank id's listener (addrs[id]) and starts
// accepting handshakes. addrs is the full address table indexed by original
// rank id; it must be identical on every node.
func ListenMesh(id int, addrs []string) (*MeshNode, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("comm: mesh id %d outside address table of %d", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("comm: mesh listen %s: %w", addrs[id], err)
	}
	return newMeshNode(id, addrs, ln), nil
}

// NewLoopbackMeshNodes builds one MeshNode per rank on 127.0.0.1 ports
// allocated by the kernel, returning the nodes and the shared address
// table. Listeners are bound once and kept — there is no reserve/release
// gap — so the addresses stay claimed for the nodes' lifetimes.
func NewLoopbackMeshNodes(size int) ([]*MeshNode, []string, error) {
	if size <= 0 {
		return nil, nil, errors.New("comm: mesh size must be positive")
	}
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("comm: mesh listen loopback: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*MeshNode, size)
	for i := range nodes {
		nodes[i] = newMeshNode(i, addrs, lns[i])
	}
	return nodes, addrs, nil
}

func newMeshNode(id int, addrs []string, ln net.Listener) *MeshNode {
	n := &MeshNode{
		id:        id,
		addrs:     append([]string(nil), addrs...),
		ln:        ln,
		lastEpoch: -1,
		inflight:  make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n
}

// ID returns the node's original rank id.
func (n *MeshNode) ID() int { return n.id }

// Addr returns the node's listen address.
func (n *MeshNode) Addr() string { return n.ln.Addr().String() }

// Close shuts the node down: the listener stops and in-flight handshakes
// are cut. Idempotent.
func (n *MeshNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for c := range n.inflight {
		c.Close()
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *MeshNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inflight[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.handshake(conn)
	}
}

// untrack removes conn from the in-flight set once its handshake resolved.
func (n *MeshNode) untrack(conn net.Conn) {
	n.mu.Lock()
	delete(n.inflight, conn)
	n.mu.Unlock()
}

// handshake reads one accepted connection's hello and hands a mesh peer's
// to admitMesh. A connection that sends any other kind, or no valid hello
// within the handshake deadline, is closed unanswered.
func (n *MeshNode) handshake(conn net.Conn) {
	defer n.wg.Done()
	kind, epoch, peer, err := readHello(conn, time.Now().Add(handshakeTimeout))
	if err != nil || kind != kindMesh {
		n.untrack(conn)
		conn.Close()
		return
	}
	n.admitMesh(epoch, peer, conn)
}

// admitMesh decides a mesh-formation connection's fate against the node's
// epoch state: accepted into the pending Join, told to retry (the dialler
// is ahead of us), or rejected as stale (behind the mesh) or invalid.
func (n *MeshNode) admitMesh(epoch uint32, peer int, conn net.Conn) {
	n.mu.Lock()
	delete(n.inflight, conn)
	if n.closed {
		n.mu.Unlock()
		writeStatus(conn, hsReject)
		conn.Close()
		return
	}
	p := n.pending
	if p != nil && epoch == p.epoch {
		pr, ok := p.rankOf[peer]
		if !ok || pr <= p.myRank {
			n.mu.Unlock()
			writeStatus(conn, hsReject)
			conn.Close()
			return
		}
		n.mu.Unlock()
		if writeStatus(conn, hsOK) != nil {
			conn.Close()
			return
		}
		select {
		case p.conns <- meshConn{rank: pr, conn: conn}:
		default:
			conn.Close()
		}
		return
	}
	stale := int64(epoch) <= n.lastEpoch
	n.mu.Unlock()
	if stale {
		writeStatus(conn, hsStale)
	} else {
		// The dialler reached an epoch this node has not entered yet (or no
		// Join is pending): back off and retry until the node catches up.
		writeStatus(conn, hsRetry)
	}
	conn.Close()
}

// Join forms the mesh for one membership epoch: members lists the epoch's
// original rank ids (this node's id must be among them) and the node's
// epoch rank is its index in that list. Epochs must strictly increase per
// node. Lower epoch ranks are dialled and higher ones accepted; diallers
// whose peers have not entered the epoch yet retry until the timeout. The
// returned transport is resilient: a peer connection dying mid-run clears
// that peer only, leaving the group verdict to the failure detector.
func (n *MeshNode) Join(epoch uint32, members []int, timeout time.Duration) (Transport, error) {
	return n.join(epoch, members, timeout, true)
}

// JoinMembers forms one membership epoch from this process's own nodes:
// every member's node (nodes[id] for each original id in members) Joins
// concurrently, and the epoch's transports are returned in member order.
// If any member fails, every transport that did form is closed.
func JoinMembers(nodes []*MeshNode, epoch uint32, members []int, timeout time.Duration) ([]Transport, error) {
	return joinMembers(nodes, epoch, members, timeout, true)
}

// joinMembers is JoinMembers with the transports' failure discipline as a
// parameter (LoopbackTCP forms a strict mesh).
func joinMembers(nodes []*MeshNode, epoch uint32, members []int, timeout time.Duration, resilient bool) ([]Transport, error) {
	ts := make([]Transport, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, id := range members {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			ts[i], errs[i] = nodes[id].join(epoch, members, timeout, resilient)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	return ts, nil
}

// join is Join with the transport's failure discipline as a parameter
// (see tcpTransport): DialTCP and LoopbackTCP form strict meshes.
func (n *MeshNode) join(epoch uint32, members []int, timeout time.Duration, resilient bool) (Transport, error) {
	rankOf := make(map[int]int, len(members))
	for i, id := range members {
		if id < 0 || id >= len(n.addrs) {
			return nil, fmt.Errorf("comm: member %d outside address table of %d", id, len(n.addrs))
		}
		if _, dup := rankOf[id]; dup {
			return nil, fmt.Errorf("comm: duplicate member %d", id)
		}
		rankOf[id] = i
	}
	me, ok := rankOf[n.id]
	if !ok {
		return nil, fmt.Errorf("comm: node %d is not in the member list %v", n.id, members)
	}
	size := len(members)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("comm: mesh node closed")
	}
	if int64(epoch) <= n.lastEpoch {
		n.mu.Unlock()
		return nil, fmt.Errorf("comm: epoch %d does not advance past %d", epoch, n.lastEpoch)
	}
	if n.pending != nil {
		n.mu.Unlock()
		return nil, errors.New("comm: a Join is already in progress")
	}
	p := &joinState{epoch: epoch, rankOf: rankOf, myRank: me, conns: make(chan meshConn, size)}
	n.pending = p
	n.mu.Unlock()

	t := newTCPTransport(me, size, resilient)
	deadline := time.Now().Add(timeout)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup

	// Collect connections from higher epoch ranks via the accept loop.
	expect := size - 1 - me
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got := 0; got < expect; {
			wait := time.Until(deadline)
			if wait <= 0 {
				fail(fmt.Errorf("comm: epoch %d: timed out waiting for %d peer connections", epoch, expect-got))
				return
			}
			select {
			case mc := <-p.conns:
				if t.peers[mc.rank] == nil {
					t.peers[mc.rank] = mc.conn
					got++
				} else {
					mc.conn.Close() // duplicate dial from a retrying peer
				}
			case <-time.After(wait):
			}
		}
	}()

	// Dial every lower epoch rank, retrying while it has not entered the
	// epoch yet (hsRetry) and failing fast when the mesh has moved past us
	// (hsStale). Mesh formation sits inside timed runs and a peer's Join is
	// usually microseconds behind the first dial, so the retry delay starts
	// well under a millisecond and backs off to the steady pace.
	for r := 0; r < me; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			addr := n.addrs[members[r]]
			delay := meshRetryMin
			for {
				if time.Now().After(deadline) {
					fail(fmt.Errorf("comm: epoch %d: dial member %d (%s): deadline exceeded", epoch, members[r], addr))
					return
				}
				status, conn := dialEpoch(addr, epoch, n.id, deadline)
				switch status {
				case hsOK:
					t.peers[r] = conn
					return
				case hsRetry:
					time.Sleep(delay)
					if delay *= 2; delay > meshRetryMax {
						delay = meshRetryMax
					}
				case hsStale:
					fail(fmt.Errorf("comm: epoch %d is stale at member %d", epoch, members[r]))
					return
				default:
					fail(fmt.Errorf("comm: member %d rejected epoch %d handshake", members[r], epoch))
					return
				}
			}
		}(r)
	}
	wg.Wait()

	n.mu.Lock()
	n.pending = nil
	if firstErr == nil {
		n.lastEpoch = int64(epoch)
	}
	n.mu.Unlock()
	if firstErr != nil {
		for _, c := range t.peers {
			if c != nil {
				c.Close()
			}
		}
		// Drain stragglers the accept side parked after the collector quit.
		for {
			select {
			case mc := <-p.conns:
				mc.conn.Close()
			default:
				return nil, firstErr
			}
		}
	}
	t.startReaders()
	return t, nil
}

// meshRetryMin / meshRetryMax bound the redial backoff of a Join whose peer
// is not ready yet.
const (
	meshRetryMin = 250 * time.Microsecond
	meshRetryMax = 10 * time.Millisecond
)

// dialEpoch makes one mesh-formation attempt against addr and returns the
// acceptor's status, with the live connection on hsOK. A peer that is down
// or cut the handshake short reads as hsRetry.
func dialEpoch(addr string, epoch uint32, id int, deadline time.Time) (byte, net.Conn) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return hsRetry, nil
	}
	if err := writeHello(conn, kindMesh, epoch, id, deadline); err != nil {
		conn.Close()
		return hsRetry, nil
	}
	status, err := readStatus(conn, deadline)
	if err != nil {
		conn.Close()
		return hsRetry, nil
	}
	if status != hsOK {
		conn.Close()
		return status, nil
	}
	return hsOK, conn
}
