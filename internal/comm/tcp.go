package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frame layout: u32 payloadLen | u16 type | u32 from | payload.
const frameHeaderLen = 4 + 2 + 4

// maxFrameLen bounds a single message; larger payloads must be chunked by
// the caller (the engine batches per-superstep updates well below this).
const maxFrameLen = 1 << 30

// Connection handshake. Every TCP connection between ranks opens with a
// fixed-size hello — magic, connection kind, membership epoch, sender's
// rank — and the acceptor answers with one status byte. The epoch tag is
// what makes reconnection safe: a connection from a previous membership
// epoch (a rank that missed a membership transition and redialled with
// stale knowledge) identifies itself as stale instead of silently joining the wrong mesh.
const (
	helloMagic = "SLFM"
	helloLen   = 4 + 1 + 4 + 4 // magic | kind | epoch u32 | rank u32

	// kindMesh is the one connection kind: mesh formation, part of a Join
	// for the epoch. A hello carrying any other kind is refused.
	kindMesh byte = 0

	// handshake status replies
	hsOK     byte = 0 // accepted
	hsRetry  byte = 1 // not ready for this epoch yet: back off and retry
	hsStale  byte = 2 // epoch is in the past: give up, the mesh moved on
	hsReject byte = 3 // refused (unknown rank, not a member, node closing)
)

// handshakeTimeout bounds how long an accepted connection may sit half-open
// before the hello must have arrived; connections that never complete the
// handshake are reaped instead of pinning an accept slot forever.
const handshakeTimeout = 2 * time.Second

// tcpTransport is a full-mesh TCP Transport. Rank i listens on addrs[i];
// every pair of ranks shares one connection (dialled by the lower rank).
//
// Two failure disciplines share the implementation. A strict transport
// (DialTCP, LoopbackTCP) treats any peer connection error as whole-group
// death: the inbox closes and every pending operation returns ErrClosed —
// the right model for run-to-completion jobs where membership never
// changes. A resilient transport (MeshNode.Join) treats a peer connection
// error as that peer's death only: the peer slot is cleared, later sends
// to it are silently dropped (frames to a powered-off host vanish), and
// the transport stays alive so the failure detector — not the socket
// layer — decides when the group is broken.
type tcpTransport struct {
	rank      int
	size      int
	resilient bool
	peers     []net.Conn   // peers[rank] == nil; guarded by sendMu per slot
	sendMu    []sync.Mutex // serialises writes and peer-slot access per peer
	inbox     *typedQueues
	stats     statCounters

	closed    atomic.Bool
	abortOnce sync.Once
	closeOnce sync.Once
	closeErr  error
}

func newTCPTransport(rank, size int, resilient bool) *tcpTransport {
	return &tcpTransport{
		rank:      rank,
		size:      size,
		resilient: resilient,
		peers:     make([]net.Conn, size),
		sendMu:    make([]sync.Mutex, size),
		inbox:     newTypedQueues(),
	}
}

// writeHello sends the connection-opening hello frame.
func writeHello(conn net.Conn, kind byte, epoch uint32, rank int, deadline time.Time) error {
	var buf [helloLen]byte
	copy(buf[:4], helloMagic)
	buf[4] = kind
	binary.LittleEndian.PutUint32(buf[5:], epoch)
	binary.LittleEndian.PutUint32(buf[9:], uint32(rank))
	conn.SetWriteDeadline(deadline)
	_, err := conn.Write(buf[:])
	conn.SetWriteDeadline(time.Time{})
	return err
}

// readHello reads and validates a hello frame, enforcing the half-open
// reaping deadline.
func readHello(conn net.Conn, deadline time.Time) (kind byte, epoch uint32, rank int, err error) {
	var buf [helloLen]byte
	conn.SetReadDeadline(deadline)
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, 0, err
	}
	conn.SetReadDeadline(time.Time{})
	if string(buf[:4]) != helloMagic {
		return 0, 0, 0, errors.New("comm: bad handshake magic")
	}
	return buf[4], binary.LittleEndian.Uint32(buf[5:]), int(binary.LittleEndian.Uint32(buf[9:])), nil
}

func writeStatus(conn net.Conn, status byte) error {
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	_, err := conn.Write([]byte{status})
	conn.SetWriteDeadline(time.Time{})
	return err
}

func readStatus(conn net.Conn, deadline time.Time) (byte, error) {
	var b [1]byte
	conn.SetReadDeadline(deadline)
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Time{})
	return b[0], nil
}

// DialTCP connects rank into a full mesh of size ranks; addrs lists every
// rank's listen address (host:port). It blocks until the mesh is complete
// or the timeout elapses. All ranks must call DialTCP concurrently. The
// mesh is a one-epoch MeshNode join with the strict failure discipline:
// the node (and its listener) lives only until the mesh has formed.
func DialTCP(rank, size int, addrs []string, timeout time.Duration) (Transport, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: invalid rank %d of %d", rank, size)
	}
	if len(addrs) != size {
		return nil, fmt.Errorf("comm: need %d addresses, got %d", size, len(addrs))
	}
	n, err := ListenMesh(rank, addrs)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	return n.join(0, allMembers(size), timeout, false)
}

// allMembers is the member list of a full mesh: original ids 0..size-1.
func allMembers(size int) []int {
	members := make([]int, size)
	for i := range members {
		members[i] = i
	}
	return members
}

// startReaders launches one reader goroutine per connected peer.
func (t *tcpTransport) startReaders() {
	for peer, conn := range t.peers {
		if conn == nil {
			continue
		}
		go t.readLoop(peer, conn)
	}
}

func (t *tcpTransport) readLoop(peer int, conn net.Conn) {
	// peerDown is how a broken connection surfaces: whole-group death for a
	// strict transport, a single cleared peer slot for a resilient one.
	peerDown := func() {
		if t.resilient {
			t.clearPeer(peer, conn)
			return
		}
		t.inbox.close()
	}
	hdr := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			peerDown()
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		typ := binary.LittleEndian.Uint16(hdr[4:])
		from := int(binary.LittleEndian.Uint32(hdr[6:]))
		if plen > maxFrameLen || from != peer {
			peerDown()
			return
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(conn, payload); err != nil {
			peerDown()
			return
		}
		if typ == typeAbortCtl {
			// In-band group-abort broadcast (resilient meshes): tear down the
			// local queues so blocked collectives return ErrClosed, then keep
			// draining the socket so peers' final writes never block.
			t.inbox.close()
			continue
		}
		t.inbox.push(Message{From: from, Type: typ, Payload: payload})
	}
}

// clearPeer marks one peer's connection dead. Sends to a cleared peer are
// silently dropped; the transport itself stays alive.
func (t *tcpTransport) clearPeer(peer int, conn net.Conn) {
	t.sendMu[peer].Lock()
	if t.peers[peer] == conn {
		t.peers[peer] = nil
	}
	t.sendMu[peer].Unlock()
	conn.Close()
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

func (t *tcpTransport) Send(to int, typ uint16, payload []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= t.size {
		return fmt.Errorf("comm: send to invalid rank %d (size %d)", to, t.size)
	}
	if len(payload) > maxFrameLen {
		return fmt.Errorf("comm: payload %d exceeds frame limit", len(payload))
	}
	if to == t.rank {
		t.stats.record(len(payload))
		p := make([]byte, len(payload))
		copy(p, payload)
		t.inbox.push(Message{From: t.rank, Type: typ, Payload: p})
		return nil
	}
	err := t.writeFrame(to, typ, payload, time.Time{})
	if err != nil && t.resilient {
		// The peer died mid-write: like a frame to a powered-off host, the
		// message vanishes. The failure detector owns the group verdict.
		return nil
	}
	return err
}

// writeFrame writes one framed message to peer `to` under its send lock.
// A cleared peer slot drops silently in resilient mode and errors in
// strict mode. A non-zero deadline bounds the socket write (used by the
// abort broadcast so it can never hang on a wedged peer).
func (t *tcpTransport) writeFrame(to int, typ uint16, payload []byte, deadline time.Time) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint16(hdr[4:], typ)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(t.rank))
	t.sendMu[to].Lock()
	defer t.sendMu[to].Unlock()
	conn := t.peers[to]
	if conn == nil {
		if t.resilient {
			return nil
		}
		return errors.New("comm: no connection to peer")
	}
	t.stats.record(len(payload))
	if !deadline.IsZero() {
		conn.SetWriteDeadline(deadline)
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := conn.Write(hdr[:]); err != nil {
		if t.resilient {
			t.peers[to] = nil
			conn.Close()
		}
		return fmt.Errorf("comm: send header: %w", err)
	}
	if _, err := conn.Write(payload); err != nil {
		if t.resilient {
			t.peers[to] = nil
			conn.Close()
		}
		return fmt.Errorf("comm: send payload: %w", err)
	}
	return nil
}

func (t *tcpTransport) Recv(typ uint16) (Message, error) {
	return t.inbox.pop(typ)
}

// Close shuts the endpoint down. It is idempotent and safe to call
// concurrently, including while an exchange is in flight: blocked Recvs
// return ErrClosed, later Sends fail with ErrClosed, and a racing Send's
// in-progress socket write surfaces a write error instead of panicking.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		t.inbox.close()
		for i := range t.peers {
			t.sendMu[i].Lock()
			c := t.peers[i]
			t.peers[i] = nil
			t.sendMu[i].Unlock()
			if c != nil {
				if err := c.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
	})
	return t.closeErr
}

// Abort implements Aborter. A strict transport closes its connections,
// which breaks every peer's read loop and closes their inboxes in turn —
// the TCP equivalent of the local hub teardown. A resilient transport must
// not let a socket close stand in for a group verdict, so it broadcasts an
// explicit in-band abort frame (bounded by a write deadline), then closes
// its own queues; peers that miss the frame still abort through their own
// failure detectors, the broadcast just gets everyone there sooner.
func (t *tcpTransport) Abort() {
	if !t.resilient {
		t.Close()
		return
	}
	t.abortOnce.Do(func() {
		deadline := time.Now().Add(time.Second)
		for peer := range t.peers {
			if peer == t.rank {
				continue
			}
			// Best-effort: a dead or wedged peer is already being handled by
			// its own detector.
			_ = t.writeFrame(peer, typeAbortCtl, nil, deadline)
		}
		t.closed.Store(true)
		t.inbox.close()
	})
}

// LoopbackTCP dials a full TCP mesh of size ranks on 127.0.0.1 — the
// loopback counterpart of NewLocalGroup, used by benchmarks and tests that
// want real sockets (serialisation, kernel buffering, write syscalls) on
// one machine. Like DialTCP it is a one-epoch strict join; the nodes'
// listeners are bound on :0 once and held until the mesh has formed, so
// there is no reserve/release gap for another process to steal a port.
func LoopbackTCP(size int, timeout time.Duration) ([]Transport, error) {
	nodes, _, err := NewLoopbackMeshNodes(size)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	return joinMembers(nodes, 0, allMembers(size), timeout, false)
}

func (t *tcpTransport) Stats() Stats { return t.stats.snapshot() }
