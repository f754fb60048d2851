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
// the same collectives in the same order (standard SPMD discipline). The
// gather-style collectives (AllGather, SparseExchange) are rounds of the
// streaming exchange (stream.go), so they share its one wire format and
// round counter with delta-sync; Barrier and the reductions stay
// root-based on their own message types. A Comm is not safe for
// concurrent use by multiple goroutines.
type Comm struct {
	T Transport

	// Streaming-exchange state (stream.go): the round counter, messages of
	// future rounds received while draining the current one, the reusable
	// header+payload staging buffer, and the pooled Exchange itself.
	streamSeq     uint64
	pendingStream map[uint64][]Message
	streamBuf     []byte
	ex            *Exchange

	// self is the reused single-rank result of the size-1 fast paths, so a
	// solo worker's collectives stay allocation-free. Valid until the next
	// collective.
	self [][]byte
}

// NewComm wraps a transport.
func NewComm(t Transport) *Comm { return &Comm{T: t} }

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

// round runs one streaming exchange for the gather-style collectives: each
// peer r for which payload(r) reports ok gets that payload as its single
// final chunk, and every other peer gets only the end marker Finish emits.
// It returns the chunks received, indexed by source rank; a source that
// sent nothing, and this rank's own slot, stay nil. A second chunk from one
// source is a protocol error.
func (c *Comm) round(payload func(to int) ([]byte, bool)) ([][]byte, error) {
	x := c.StartExchange()
	for r := 0; r < c.Size(); r++ {
		if p, ok := payload(r); ok && r != c.Rank() {
			if err := x.SendFinalChunk(r, p); err != nil {
				return nil, err
			}
		}
	}
	out := make([][]byte, c.Size())
	err := x.Finish(func(from int, chunk []byte) error {
		if x.got[from] > 1 {
			return fmt.Errorf("comm: rank %d sent %d blobs in one collective round", from, x.got[from])
		}
		out[from] = chunk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllGather sends this rank's blob to every rank and returns all blobs
// indexed by rank (own blob included, not copied). With a single rank the
// returned slice is reused by the next size-1 collective.
func (c *Comm) AllGather(blob []byte) ([][]byte, error) {
	if c.Size() == 1 {
		return c.selfResult(blob), nil
	}
	out, err := c.round(func(int) ([]byte, bool) { return blob, true })
	if err != nil {
		return nil, err
	}
	for r, b := range out {
		if b == nil && r != c.Rank() {
			return nil, fmt.Errorf("comm: rank %d sent no blob to AllGather", r)
		}
	}
	out[c.Rank()] = blob
	return out, nil
}

// SparseExchange sends blobs[r] to rank r only when non-nil, so a
// superstep with few cross-rank deltas pays a payload only for the peers
// it actually feeds; every other peer gets just the round's end marker.
// Returns the received blobs indexed by source rank; sources that sent
// nothing stay nil (blobs[own rank] is passed through locally).
func (c *Comm) SparseExchange(blobs [][]byte) ([][]byte, error) {
	if len(blobs) != c.Size() {
		return nil, fmt.Errorf("comm: SparseExchange needs %d blobs, got %d", c.Size(), len(blobs))
	}
	if c.Size() == 1 {
		return c.selfResult(blobs[0]), nil
	}
	out, err := c.round(func(r int) ([]byte, bool) { return blobs[r], blobs[r] != nil })
	if err != nil {
		return nil, err
	}
	out[c.Rank()] = blobs[c.Rank()]
	return out, nil
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
