package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the streaming exchange, the one wire framing for
// point-to-point blobs: a rank opens an exchange, streams individually
// framed chunks to chosen peers (in the overlapped superstep pipeline,
// while its compute phase is still running), and finishes with a
// collective drain that applies every peer's chunks. AllGather and
// SparseExchange are single rounds of it in which each peer gets at most
// one final chunk (collectives.go). Because the payload
// travels as ordinary typed Transport messages it works identically over
// the in-process and the TCP transports, and every rank can be at a
// different point of the protocol at any moment — the only synchronisation
// is the per-peer end marker carrying the total chunk count.
//
// Wire format (after the transport's own framing): every typeStream
// payload starts with a fixed 13-byte header
//
//	u64 seq | u8 kind | u32 n
//
// where seq numbers the exchange round, one counter for every round this
// Comm runs (a fast rank may stream round k+1 while a slow peer still
// drains round k; Finish buffers such future rounds), kind is streamChunk
// or streamEnd, and n is the chunk's sequence index within (round, sender,
// receiver) — or, on an end marker, the total number of chunks the sender
// addressed to this receiver. Chunk payloads follow the header; end
// markers carry none.
// Transports guarantee per-(sender, type) FIFO delivery, so the index is a
// hardening check (ordered chunk sequencing), not a reassembly mechanism.

const (
	streamHeaderLen = 8 + 1 + 4
	streamChunkKind = byte(0)
	streamEndKind   = byte(1)
	// streamFinalKind is a chunk that doubles as the sender's end marker
	// (total = index + 1), so the common single-batch superstep costs one
	// message per peer — the same count as a post-barrier exchange.
	streamFinalKind = byte(2)
)

// Exchange is one streaming round. It is created by StartExchange, fed by
// SendChunk calls (from the same goroutine that owns the Comm — an
// Exchange inherits the Comm's no-concurrent-use rule) and completed by
// Finish. The engine reuses one Exchange per Comm, so a steady-state round
// allocates nothing beyond what the transport copies.
type Exchange struct {
	c         *Comm
	seq       uint64
	sent      []uint32 // chunks sent per destination rank this round
	ended     []bool   // destination already got a final chunk (no end marker)
	sentBytes int64    // header+payload bytes handed to the transport
	done      bool

	// Finish working state, pooled across rounds.
	want []int64 // announced chunk total per source (-1: no end marker yet)
	got  []int64 // chunks received per source
}

// SentBytes returns the header+payload bytes this round has handed to the
// transport so far — the overlap instrumentation's "in flight" count,
// independent of when a (possibly latency-emulating) transport accounts
// the delivery.
func (x *Exchange) SentBytes() int64 { return x.sentBytes }

// StartExchange opens a streaming round. Every rank must eventually open
// the same rounds in the same order (SPMD discipline, like the other
// collectives); opening a new round before finishing the previous one is a
// programming error and panics.
func (c *Comm) StartExchange() *Exchange {
	if c.ex == nil {
		c.ex = &Exchange{
			c:     c,
			sent:  make([]uint32, c.Size()),
			ended: make([]bool, c.Size()),
			want:  make([]int64, c.Size()),
			got:   make([]int64, c.Size()),
		}
		c.ex.done = true
	}
	x := c.ex
	if !x.done {
		panic("comm: StartExchange while a streaming exchange is still open")
	}
	x.seq = c.streamSeq
	c.streamSeq++
	x.done = false
	x.sentBytes = 0
	for r := range x.sent {
		x.sent[r], x.ended[r], x.want[r], x.got[r] = 0, false, -1, 0
	}
	return x
}

// SendChunk streams one chunk to a peer. The payload is staged into the
// Comm's reusable buffer before Send, so the caller may reuse it
// immediately (transports never retain payloads past Send). Chunks to one
// peer are delivered in SendChunk order.
func (x *Exchange) SendChunk(to int, payload []byte) error {
	return x.sendChunk(to, streamChunkKind, payload)
}

// SendFinalChunk streams one chunk that doubles as the end marker for this
// peer: Finish then owes it no separate marker. Use it for the tail batch
// when the caller knows no more chunks follow; SendChunk to the same peer
// afterwards is an error.
func (x *Exchange) SendFinalChunk(to int, payload []byte) error {
	return x.sendChunk(to, streamFinalKind, payload)
}

func (x *Exchange) sendChunk(to int, kind byte, payload []byte) error {
	if x.done {
		return errors.New("comm: SendChunk on a finished exchange")
	}
	c := x.c
	if to < 0 || to >= c.Size() || to == c.Rank() {
		return fmt.Errorf("comm: stream chunk to invalid rank %d (size %d, self %d)", to, c.Size(), c.Rank())
	}
	if x.ended[to] {
		return fmt.Errorf("comm: stream chunk to rank %d after its final chunk", to)
	}
	if err := c.sendStream(to, kind, x.seq, x.sent[to], payload); err != nil {
		return err
	}
	x.sent[to]++
	x.sentBytes += streamHeaderLen + int64(len(payload))
	if kind == streamFinalKind {
		x.ended[to] = true
	}
	return nil
}

// Finish completes the round: it announces the per-peer chunk totals, then
// receives until every peer's announced chunks have arrived, handing each
// chunk payload to apply in that peer's send order. Chunks of later rounds
// arriving early are buffered for their own Finish. An apply error aborts
// the drain (the caller is expected to Abort the transport, as the cluster
// error paths already do).
func (x *Exchange) Finish(apply func(from int, chunk []byte) error) error {
	if x.done {
		return errors.New("comm: Finish on a finished exchange")
	}
	x.done = true
	c := x.c
	size, me := c.Size(), c.Rank()
	if size == 1 {
		return nil
	}
	for r := 0; r < size; r++ {
		if r != me && !x.ended[r] {
			if err := c.sendStream(r, streamEndKind, x.seq, x.sent[r], nil); err != nil {
				return err
			}
		}
	}
	remaining := size - 1
	// Serve chunks buffered by earlier rounds first (FIFO per sender is
	// preserved: the buffer appends in arrival order).
	if list, ok := c.pendingStream[x.seq]; ok {
		delete(c.pendingStream, x.seq)
		for _, m := range list {
			done, err := x.dispatch(m, apply)
			if err != nil {
				return err
			}
			remaining -= done
		}
	}
	for remaining > 0 {
		m, err := c.T.Recv(typeStream)
		if err != nil {
			return err
		}
		if len(m.Payload) < streamHeaderLen {
			return fmt.Errorf("comm: short stream payload from rank %d (%d bytes)", m.From, len(m.Payload))
		}
		seq := binary.LittleEndian.Uint64(m.Payload)
		if seq != x.seq {
			if seq < x.seq {
				return fmt.Errorf("comm: stale stream payload from rank %d (round %d, current %d)", m.From, seq, x.seq)
			}
			if c.pendingStream == nil {
				c.pendingStream = make(map[uint64][]Message)
			}
			c.pendingStream[seq] = append(c.pendingStream[seq], m)
			continue
		}
		done, err := x.dispatch(m, apply)
		if err != nil {
			return err
		}
		remaining -= done
	}
	return nil
}

// dispatch validates and applies one current-round message, returning 1
// when it completes its sender.
func (x *Exchange) dispatch(m Message, apply func(from int, chunk []byte) error) (int, error) {
	if len(m.Payload) < streamHeaderLen {
		return 0, fmt.Errorf("comm: short stream payload from rank %d (%d bytes)", m.From, len(m.Payload))
	}
	kind := m.Payload[8]
	n := binary.LittleEndian.Uint32(m.Payload[9:])
	from := m.From
	switch kind {
	case streamChunkKind, streamFinalKind:
		if x.want[from] >= 0 {
			return 0, fmt.Errorf("comm: rank %d streamed a chunk beyond its announced total %d", from, x.want[from])
		}
		if int64(n) != x.got[from] {
			return 0, fmt.Errorf("comm: stream chunk %d from rank %d out of order (want %d)", n, from, x.got[from])
		}
		x.got[from]++
		if kind == streamFinalKind {
			x.want[from] = x.got[from]
		}
		if err := apply(from, m.Payload[streamHeaderLen:]); err != nil {
			return 0, err
		}
		if x.want[from] >= 0 && x.got[from] == x.want[from] {
			return 1, nil
		}
	case streamEndKind:
		if x.want[from] >= 0 {
			return 0, fmt.Errorf("comm: duplicate stream end marker from rank %d", from)
		}
		if int64(n) < x.got[from] {
			return 0, fmt.Errorf("comm: rank %d announced %d stream chunks after sending %d", from, n, x.got[from])
		}
		x.want[from] = int64(n)
		if x.got[from] == x.want[from] {
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("comm: unknown stream message kind %d from rank %d", kind, from)
	}
	return 0, nil
}

// sendStream stages a stream header + payload in the Comm's reusable
// buffer and sends it.
func (c *Comm) sendStream(to int, kind byte, seq uint64, n uint32, payload []byte) error {
	buf := binary.LittleEndian.AppendUint64(c.streamBuf[:0], seq)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, n)
	buf = append(buf, payload...)
	c.streamBuf = buf[:0]
	return c.T.Send(to, typeStream, buf)
}
