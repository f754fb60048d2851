// Package comm is the message-passing substrate standing in for MPI in the
// paper's cluster (§3.5 mentions updates travelling "via message passing
// interface (MPI)"). It provides:
//
//   - Transport: point-to-point typed message delivery between ranks, with
//     an in-process implementation (channels) and a TCP implementation
//     (length-prefixed frames over a full mesh, for genuinely distributed
//     runs).
//   - Comm: collectives built on Transport — barrier and all-reduce, plus
//     the streaming exchange (stream.go) that carries delta-sync and the
//     all-gather, sparse and ring exchanges — which is all the engine
//     needs.
//
// Every byte crossing ranks is accounted, which feeds the communication
// analysis in §4.2.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is one delivered payload.
type Message struct {
	From    int
	Type    uint16
	Payload []byte
}

// Well-known message types. Application phases use types >= TypeUser.
const (
	typeBarrier uint16 = iota
	typeBarrierRelease
	typeReduce
	typeReduceResult
	typeStream
	// TypeUser is the first type available to applications.
	TypeUser uint16 = 64
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// Transport delivers typed messages between ranks 0..Size-1. Sends are
// asynchronous; Recv blocks until a message of the requested type arrives.
// Per-(sender, type) FIFO ordering is guaranteed.
//
// Close shuts the local endpoint down and is idempotent: concurrent or
// repeated calls — including a Close racing an in-flight Send, Recv or
// streaming exchange — are safe, and every blocked or later operation
// returns ErrClosed instead of hanging or delivering after shutdown.
type Transport interface {
	Rank() int
	Size() int
	Send(to int, typ uint16, payload []byte) error
	Recv(typ uint16) (Message, error)
	Close() error
	Stats() Stats
}

// Aborter is implemented by transports that can tear down the whole group
// on unrecoverable local failure, unblocking peers that would otherwise
// wait forever for this rank's messages. Close only shuts down the local
// endpoint; Abort is the error path.
type Aborter interface {
	Abort()
}

// Abort tears down t's group if the transport supports it (no-op
// otherwise). Call it when abandoning a collective mid-flight.
func Abort(t Transport) {
	if a, ok := t.(Aborter); ok {
		a.Abort()
	}
}

// Stats counts traffic through a transport.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
}

type statCounters struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

func (s *statCounters) record(payloadLen int) {
	s.messages.Add(1)
	s.bytes.Add(int64(payloadLen))
}

func (s *statCounters) snapshot() Stats {
	return Stats{MessagesSent: s.messages.Load(), BytesSent: s.bytes.Load()}
}

// typedQueues routes incoming messages into unbounded per-type queues so a
// phase waiting on one type never steals another phase's messages.
type typedQueues struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[uint16][]Message
	closed bool
}

func newTypedQueues() *typedQueues {
	q := &typedQueues{queues: make(map[uint16][]Message)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *typedQueues) push(m Message) {
	q.mu.Lock()
	if q.closed {
		// The receiver shut down: dropping beats delivering into a
		// dismantled endpoint (pop would hand the stale message out before
		// reporting ErrClosed, resurrecting a half-torn-down exchange).
		q.mu.Unlock()
		return
	}
	q.queues[m.Type] = append(q.queues[m.Type], m)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *typedQueues) pop(typ uint16) (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return Message{}, ErrClosed
		}
		if list := q.queues[typ]; len(list) > 0 {
			m := list[0]
			q.queues[typ] = list[1:]
			return m, nil
		}
		q.cond.Wait()
	}
}

func (q *typedQueues) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// localHub wires Size in-process transports together.
type localHub struct {
	inboxes []*typedQueues
}

// localTransport is the in-process Transport: a Send is an append to the
// destination's typed queue. It models the cluster interconnect with zero
// serialisation cost while preserving exact message/byte accounting.
type localTransport struct {
	rank  int
	hub   *localHub
	stats statCounters
	done  atomic.Bool
}

// NewLocalGroup creates size transports connected through an in-process hub.
func NewLocalGroup(size int) ([]Transport, error) {
	if size <= 0 {
		return nil, errors.New("comm: group size must be positive")
	}
	hub := &localHub{inboxes: make([]*typedQueues, size)}
	for i := range hub.inboxes {
		hub.inboxes[i] = newTypedQueues()
	}
	ts := make([]Transport, size)
	for i := range ts {
		ts[i] = &localTransport{rank: i, hub: hub}
	}
	return ts, nil
}

func (t *localTransport) Rank() int { return t.rank }
func (t *localTransport) Size() int { return len(t.hub.inboxes) }

func (t *localTransport) Send(to int, typ uint16, payload []byte) error {
	if t.done.Load() {
		return ErrClosed
	}
	if to < 0 || to >= t.Size() {
		return fmt.Errorf("comm: send to invalid rank %d (size %d)", to, t.Size())
	}
	// Copy the payload: senders reuse buffers.
	p := make([]byte, len(payload))
	copy(p, payload)
	t.stats.record(len(p))
	t.hub.inboxes[to].push(Message{From: t.rank, Type: typ, Payload: p})
	return nil
}

func (t *localTransport) Recv(typ uint16) (Message, error) {
	return t.hub.inboxes[t.rank].pop(typ)
}

func (t *localTransport) Close() error {
	if t.done.CompareAndSwap(false, true) {
		t.hub.inboxes[t.rank].close()
	}
	return nil
}

// Abort implements Aborter: it closes every inbox of the group so that
// ranks blocked in Recv on messages the failed rank will never send return
// ErrClosed instead of deadlocking.
func (t *localTransport) Abort() {
	t.done.Store(true)
	for _, q := range t.hub.inboxes {
		q.close()
	}
}

func (t *localTransport) Stats() Stats { return t.stats.snapshot() }
