package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ReduceOp is a commutative, associative reduction operator.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

// Comm layers collective operations over a Transport. All ranks must invoke
// the same collectives in the same order (standard SPMD discipline). A Comm
// is not safe for concurrent use by multiple goroutines.
type Comm struct {
	T Transport

	// Sequence counters distinguish successive rounds of the peer-to-peer
	// collectives: a fast rank may start round k+1 while a slow rank is
	// still draining round k, so every blob is tagged and out-of-order
	// arrivals are buffered.
	gatherSeq   uint64
	allToAllSeq uint64
	sparseSeq   uint64
	ringSeq     uint64
	pending     map[pendKey][]byte

	// Streaming-exchange state (stream.go): the round counter, messages of
	// future rounds received while draining the current one, the reusable
	// header+payload staging buffer, and the pooled Exchange itself.
	streamSeq     uint64
	pendingStream map[uint64][]Message
	streamBuf     []byte
	ex            *Exchange

	// seqBuf is the reusable header+payload staging buffer of sendSeq.
	// Transports do not retain payloads after Send returns (the local
	// transport copies, TCP writes synchronously), so one buffer serves
	// every send of this Comm. A Comm is not safe for concurrent use.
	seqBuf []byte
	// self is the reused single-rank result of the size-1 fast paths, so a
	// solo worker's collectives stay allocation-free. Valid until the next
	// collective.
	self [][]byte
}

type pendKey struct {
	typ  uint16
	seq  uint64
	from int
}

// NewComm wraps a transport.
func NewComm(t Transport) *Comm { return &Comm{T: t, pending: make(map[pendKey][]byte)} }

// sendSeq sends payload tagged with an 8-byte sequence header, staging the
// frame in the Comm's reusable buffer.
func (c *Comm) sendSeq(to int, typ uint16, seq uint64, payload []byte) error {
	buf := binary.LittleEndian.AppendUint64(c.seqBuf[:0], seq)
	buf = append(buf, payload...)
	c.seqBuf = buf[:0]
	return c.T.Send(to, typ, buf)
}

// recvSeq returns the next message of the given type and sequence from any
// rank, buffering messages that belong to later sequences.
func (c *Comm) recvSeq(typ uint16, seq uint64) (from int, payload []byte, err error) {
	for {
		// Serve buffered messages first.
		for k, p := range c.pending {
			if k.typ == typ && k.seq == seq {
				delete(c.pending, k)
				return k.from, p, nil
			}
		}
		m, err := c.T.Recv(typ)
		if err != nil {
			return 0, nil, err
		}
		if len(m.Payload) < 8 {
			return 0, nil, fmt.Errorf("comm: short sequenced payload from rank %d", m.From)
		}
		got := binary.LittleEndian.Uint64(m.Payload)
		if got == seq {
			return m.From, m.Payload[8:], nil
		}
		c.pending[pendKey{typ: typ, seq: got, from: m.From}] = m.Payload[8:]
	}
}

// recvWord receives the next message of the given type and validates the
// fixed 8-byte payload the reduction collectives exchange: a short or
// oversized blob is reported as a protocol error instead of sliced out of
// range.
func (c *Comm) recvWord(typ uint16) (uint64, error) {
	m, err := c.T.Recv(typ)
	if err != nil {
		return 0, err
	}
	if len(m.Payload) != 8 {
		return 0, fmt.Errorf("comm: reduce payload from rank %d has %d bytes, want 8", m.From, len(m.Payload))
	}
	return binary.LittleEndian.Uint64(m.Payload), nil
}

// Rank returns this rank.
func (c *Comm) Rank() int { return c.T.Rank() }

// Size returns the group size.
func (c *Comm) Size() int { return c.T.Size() }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	if c.Size() == 1 {
		return nil
	}
	if c.Rank() == 0 {
		for i := 0; i < c.Size()-1; i++ {
			if _, err := c.T.Recv(typeBarrier); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.T.Send(r, typeBarrierRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.T.Send(0, typeBarrier, nil); err != nil {
		return err
	}
	_, err := c.T.Recv(typeBarrierRelease)
	return err
}

// AllReduceI64 reduces x across all ranks with op and returns the result on
// every rank.
func (c *Comm) AllReduceI64(x int64, op ReduceOp) (int64, error) {
	w, err := c.allReduceWord(uint64(x), op, foldI64)
	return int64(w), err
}

// AllReduceF64 reduces x across all ranks with op and returns the result on
// every rank.
func (c *Comm) AllReduceF64(x float64, op ReduceOp) (float64, error) {
	w, err := c.allReduceWord(math.Float64bits(x), op, foldF64)
	return math.Float64frombits(w), err
}

// allReduceWord is both reductions over one 8-byte word: rank 0 gathers
// every other rank's word, folds them into its own in arrival order, and
// broadcasts the result. fold interprets the words (integer or float).
func (c *Comm) allReduceWord(x uint64, op ReduceOp, fold func(a, b uint64, op ReduceOp) uint64) (uint64, error) {
	if c.Size() == 1 {
		return x, nil
	}
	var buf [8]byte
	if c.Rank() == 0 {
		acc := x
		for i := 0; i < c.Size()-1; i++ {
			w, err := c.recvWord(typeReduce)
			if err != nil {
				return 0, err
			}
			acc = fold(acc, w, op)
		}
		binary.LittleEndian.PutUint64(buf[:], acc)
		for r := 1; r < c.Size(); r++ {
			if err := c.T.Send(r, typeReduceResult, buf[:]); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	binary.LittleEndian.PutUint64(buf[:], x)
	if err := c.T.Send(0, typeReduce, buf[:]); err != nil {
		return 0, err
	}
	return c.recvWord(typeReduceResult)
}

// selfResult returns the reused single-entry result slice holding blob,
// the size-1 fast path of the gather-style collectives.
func (c *Comm) selfResult(blob []byte) [][]byte {
	if c.self == nil {
		c.self = make([][]byte, 1)
	}
	c.self[0] = blob
	return c.self
}

// AllGather sends this rank's blob to every rank and returns all blobs
// indexed by rank (own blob included, not copied). With a single rank the
// returned slice is reused by the next size-1 collective.
func (c *Comm) AllGather(blob []byte) ([][]byte, error) {
	if c.Size() == 1 {
		return c.selfResult(blob), nil
	}
	seq := c.gatherSeq
	c.gatherSeq++
	out := make([][]byte, c.Size())
	out[c.Rank()] = blob
	for r := 0; r < c.Size(); r++ {
		if r == c.Rank() {
			continue
		}
		if err := c.sendSeq(r, typeGather, seq, blob); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Size()-1; i++ {
		from, payload, err := c.recvSeq(typeGather, seq)
		if err != nil {
			return nil, err
		}
		out[from] = payload
	}
	return out, nil
}

// AllToAll sends blobs[r] to rank r and returns the blobs received from each
// rank (blobs[own rank] is passed through locally).
func (c *Comm) AllToAll(blobs [][]byte) ([][]byte, error) {
	if len(blobs) != c.Size() {
		return nil, fmt.Errorf("comm: AllToAll needs %d blobs, got %d", c.Size(), len(blobs))
	}
	if c.Size() == 1 {
		return c.selfResult(blobs[0]), nil
	}
	seq := c.allToAllSeq
	c.allToAllSeq++
	out := make([][]byte, c.Size())
	out[c.Rank()] = blobs[c.Rank()]
	for r := 0; r < c.Size(); r++ {
		if r == c.Rank() {
			continue
		}
		if err := c.sendSeq(r, typeAllToAll, seq, blobs[r]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Size()-1; i++ {
		from, payload, err := c.recvSeq(typeAllToAll, seq)
		if err != nil {
			return nil, err
		}
		out[from] = payload
	}
	return out, nil
}

// SparseExchange is the sparse counterpart of AllToAll: blobs[r] is sent to
// rank r only when non-nil, so a superstep with few cross-rank deltas pays
// for the peers it actually feeds instead of a full mesh of payloads. Ranks
// first AllGather a destination bitmap (one bit per rank, ceil(size/8)
// bytes) so every rank knows how many payloads to expect; payloads are then
// sent directly, batched and sequence-tagged like the gather path, so a
// fast rank's next round never mixes with a slow rank's current one.
// Returns the received blobs indexed by source rank; sources that sent
// nothing stay nil (blobs[own rank] is passed through locally).
func (c *Comm) SparseExchange(blobs [][]byte) ([][]byte, error) {
	size := c.Size()
	if len(blobs) != size {
		return nil, fmt.Errorf("comm: SparseExchange needs %d blobs, got %d", size, len(blobs))
	}
	if size == 1 {
		return c.selfResult(blobs[0]), nil
	}
	out := make([][]byte, size)
	out[c.Rank()] = blobs[c.Rank()]
	maskLen := (size + 7) / 8
	mask := make([]byte, maskLen)
	for r, b := range blobs {
		if b != nil && r != c.Rank() {
			mask[r/8] |= 1 << (r % 8)
		}
	}
	masks, err := c.AllGather(mask)
	if err != nil {
		return nil, err
	}
	expected := 0
	me := c.Rank()
	for src, m := range masks {
		if src == me {
			continue
		}
		if len(m) != maskLen {
			return nil, fmt.Errorf("comm: sparse destination mask from rank %d has %d bytes, want %d", src, len(m), maskLen)
		}
		if m[me/8]&(1<<(me%8)) != 0 {
			expected++
		}
	}
	seq := c.sparseSeq
	c.sparseSeq++
	for r, b := range blobs {
		if r == me || b == nil {
			continue
		}
		if err := c.sendSeq(r, typeSparse, seq, b); err != nil {
			return nil, err
		}
	}
	for i := 0; i < expected; i++ {
		from, payload, err := c.recvSeq(typeSparse, seq)
		if err != nil {
			return nil, err
		}
		out[from] = payload
	}
	return out, nil
}

// RingExchange sends blob to the next rank on the ring ((rank+1) mod size)
// and returns the payload received from the previous rank. The checkpoint
// replication path uses it to hand every rank's shard to a buddy, so any
// single rank's state survives the loss of that rank's disk and process.
// It is a collective: every rank must call it at the same point (the
// engine's superstep loop is barrier-aligned, so checkpoint ticks qualify).
// With a single rank the blob is passed through.
func (c *Comm) RingExchange(blob []byte) ([]byte, error) {
	if c.Size() == 1 {
		return blob, nil
	}
	seq := c.ringSeq
	c.ringSeq++
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	if err := c.sendSeq(next, typeReplica, seq, blob); err != nil {
		return nil, err
	}
	from, payload, err := c.recvSeq(typeReplica, seq)
	if err != nil {
		return nil, err
	}
	if from != prev {
		return nil, fmt.Errorf("comm: ring payload from rank %d, want %d", from, prev)
	}
	return payload, nil
}

func foldI64(a, b uint64, op ReduceOp) uint64 {
	return uint64(reduceI64(int64(a), int64(b), op))
}

func foldF64(a, b uint64, op ReduceOp) uint64 {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	switch op {
	case OpSum:
		return math.Float64bits(x + y)
	case OpMin:
		return math.Float64bits(math.Min(x, y))
	case OpMax:
		return math.Float64bits(math.Max(x, y))
	}
	panic(fmt.Sprintf("comm: unknown reduce op %d", op))
}

func reduceI64(a, b int64, op ReduceOp) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("comm: unknown reduce op %d", op))
}
