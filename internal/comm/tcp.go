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

// Connection handshake. Every TCP connection between ranks opens with an
// 8-byte hello — magic and the dialler's rank — and the acceptor answers
// hsOK once it has taken the connection into the mesh. A hello it refuses
// (bad magic, a rank that must not dial it, a slot already filled) is
// closed unanswered.
const (
	helloMagic = "SLFM"
	helloLen   = 4 + 4 // magic | rank u32

	hsOK byte = 0 // accepted
)

// handshakeTimeout bounds how long an accepted connection may sit half-open
// before the hello must have arrived; connections that never complete the
// handshake are reaped instead of pinning an accept slot forever.
const handshakeTimeout = 2 * time.Second

// dialRetryMin / dialRetryMax bound the redial backoff while a lower rank
// is not listening yet. Mesh formation sits inside timed runs and a peer's
// listener is usually microseconds behind the first dial, so the delay
// starts well under a millisecond and backs off to the steady pace.
const (
	dialRetryMin = 250 * time.Microsecond
	dialRetryMax = 10 * time.Millisecond
)

// tcpTransport is a full-mesh TCP Transport. Rank i listens on addrs[i];
// every pair of ranks shares one connection (dialled by the higher rank).
// Any peer connection error is whole-group death: the inbox closes and
// every pending operation returns ErrClosed — the model of a
// run-to-completion job whose membership never changes.
type tcpTransport struct {
	rank   int
	size   int
	peers  []net.Conn   // peers[rank] == nil; guarded by sendMu per slot
	sendMu []sync.Mutex // serialises writes and peer-slot access per peer
	inbox  *typedQueues
	stats  statCounters

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// writeHello sends the connection-opening hello frame.
func writeHello(conn net.Conn, rank int, deadline time.Time) error {
	var buf [helloLen]byte
	copy(buf[:4], helloMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(rank))
	conn.SetWriteDeadline(deadline)
	_, err := conn.Write(buf[:])
	conn.SetWriteDeadline(time.Time{})
	return err
}

// readHello reads and validates a hello frame, enforcing the half-open
// reaping deadline.
func readHello(conn net.Conn, deadline time.Time) (rank int, err error) {
	var buf [helloLen]byte
	conn.SetReadDeadline(deadline)
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Time{})
	if string(buf[:4]) != helloMagic {
		return 0, errors.New("comm: bad handshake magic")
	}
	return int(binary.LittleEndian.Uint32(buf[4:])), nil
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
// rank's listener lives only until the mesh has formed.
func DialTCP(rank, size int, addrs []string, timeout time.Duration) (Transport, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: invalid rank %d of %d", rank, size)
	}
	if len(addrs) != size {
		return nil, fmt.Errorf("comm: need %d addresses, got %d", size, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addrs[rank], err)
	}
	t, err := formMesh(ln, rank, addrs, time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LoopbackTCP dials a full TCP mesh of size ranks on 127.0.0.1 — the
// loopback counterpart of NewLocalGroup, used by benchmarks and tests that
// want real sockets (serialisation, kernel buffering, write syscalls) on
// one machine. Every listener is bound on :0 before any rank dials and held
// until the mesh has formed, so there is no reserve/release gap for another
// process to steal a port.
func LoopbackTCP(size int, timeout time.Duration) ([]Transport, error) {
	if size <= 0 {
		return nil, errors.New("comm: mesh size must be positive")
	}
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("comm: listen loopback: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	deadline := time.Now().Add(timeout)
	ts := make([]Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, ln := range lns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := formMesh(ln, i, addrs, deadline)
			if err == nil {
				ts[i] = t
			}
			errs[i] = err
		}()
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

// formMesh forms rank's side of a full mesh over addrs on the already-bound
// listener ln, which it closes before returning. Higher ranks are accepted,
// each hello read on its own goroutine so a silent connection cannot hold
// up real peers; lower ranks are dialled. The mesh must be complete by
// deadline.
func formMesh(ln net.Listener, rank int, addrs []string, deadline time.Time) (*tcpTransport, error) {
	size := len(addrs)
	t := &tcpTransport{
		rank:   rank,
		size:   size,
		peers:  make([]net.Conn, size),
		sendMu: make([]sync.Mutex, size),
		inbox:  newTypedQueues(),
	}
	var (
		mu       sync.Mutex // guards everything below and t.peers
		firstErr error
		missing  = size - 1 - rank // higher ranks not accepted yet
		inflight = make(map[net.Conn]struct{})
		closing  bool
		allIn    = make(chan struct{})
		accepts  sync.WaitGroup // accept loop + handshakes
		dials    sync.WaitGroup
	)
	if missing == 0 {
		close(allIn)
	}

	handshake := func(conn net.Conn) {
		defer accepts.Done()
		peer, err := readHello(conn, time.Now().Add(handshakeTimeout))
		mu.Lock()
		defer mu.Unlock()
		delete(inflight, conn)
		if err != nil || closing || peer <= rank || peer >= size || t.peers[peer] != nil ||
			writeStatus(conn, hsOK) != nil {
			conn.Close()
			return
		}
		t.peers[peer] = conn
		if missing--; missing == 0 {
			close(allIn)
		}
	}
	accepts.Add(1)
	go func() {
		defer accepts.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closing {
				mu.Unlock()
				conn.Close()
				return
			}
			inflight[conn] = struct{}{}
			accepts.Add(1)
			mu.Unlock()
			go handshake(conn)
		}
	}()

	for r := range rank {
		dials.Add(1)
		go func() {
			defer dials.Done()
			conn, err := dialPeer(addrs[r], rank, deadline)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("comm: rank %d: dial rank %d (%s): %w", rank, r, addrs[r], err)
				}
				return
			}
			t.peers[r] = conn
		}()
	}
	dials.Wait()
	if firstErr == nil {
		select {
		case <-allIn:
		case <-time.After(time.Until(deadline)):
			mu.Lock()
			firstErr = fmt.Errorf("comm: rank %d: timed out waiting for %d higher ranks", rank, missing)
			mu.Unlock()
		}
	}

	ln.Close()
	mu.Lock()
	closing = true
	for c := range inflight {
		c.Close()
	}
	mu.Unlock()
	accepts.Wait()
	if firstErr != nil {
		for _, c := range t.peers {
			if c != nil {
				c.Close()
			}
		}
		return nil, firstErr
	}
	for peer, conn := range t.peers {
		if conn != nil {
			go t.readLoop(peer, conn)
		}
	}
	return t, nil
}

// dialPeer connects to a lower rank's listener and completes the hello. A
// failed dial (the peer is not listening yet) is retried with backoff until
// deadline; a failure after the connection opened is final.
func dialPeer(addr string, rank int, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	for delay := dialRetryMin; ; delay = min(2*delay, dialRetryMax) {
		conn, err := d.Dial("tcp", addr)
		if err != nil {
			if time.Now().Add(delay).After(deadline) {
				return nil, err
			}
			time.Sleep(delay)
			continue
		}
		if err := writeHello(conn, rank, deadline); err != nil {
			conn.Close()
			return nil, err
		}
		status, err := readStatus(conn, deadline)
		if err == nil && status != hsOK {
			err = fmt.Errorf("handshake status %d", status)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("handshake refused: %w", err)
		}
		return conn, nil
	}
}

// readLoop delivers one peer's frames into the inbox. A broken connection
// or a malformed frame is whole-group death: the inbox closes.
func (t *tcpTransport) readLoop(peer int, conn net.Conn) {
	defer t.inbox.close()
	hdr := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		typ := binary.LittleEndian.Uint16(hdr[4:])
		from := int(binary.LittleEndian.Uint32(hdr[6:]))
		if plen > maxFrameLen || from != peer {
			return
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		t.inbox.push(Message{From: from, Type: typ, Payload: payload})
	}
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
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint16(hdr[4:], typ)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(t.rank))
	t.sendMu[to].Lock()
	defer t.sendMu[to].Unlock()
	conn := t.peers[to]
	if conn == nil {
		return errors.New("comm: no connection to peer")
	}
	t.stats.record(len(payload))
	if _, err := conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("comm: send header: %w", err)
	}
	if _, err := conn.Write(payload); err != nil {
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

// Abort implements Aborter: closing this rank's connections breaks every
// peer's read loop, which closes their inboxes in turn — the TCP
// equivalent of the local hub teardown.
func (t *tcpTransport) Abort() { t.Close() }

func (t *tcpTransport) Stats() Stats { return t.stats.snapshot() }
