package core

import (
	"fmt"
	"math"

	"slfe/internal/bitset"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// This file implements the delta-sync pipeline of every multi-rank
// superstep: changed owned vertices leave as codec chunks through the comm
// layer's streaming exchange, and pull-style supersteps send them while
// compute is still running. The pieces:
//
//   - BSP purity is what makes early emission safe: compute stages every
//     new value into the kernel's scratch array (the double buffer — the
//     live value array is untouched until commit), and a vertex's scratch
//     slot, changed bit and kernel state are written only by the chunk that
//     owns it. A chunk's deltas are therefore final the moment its compute
//     finishes: the arith compute already staged the exact values commit
//     publishes, and its commit is a copy of the staged owned range.
//   - ws.RunOverlap hands each finished chunk, in ascending vertex order,
//     to the engine's drain on the dispatching goroutine while workers
//     compute the rest. The drain batches changed (id, scratch value)
//     pairs — packed into the domain's wire words as they are collected —
//     encodes each batch with per-chunk codec selection
//     (compress.StreamEncoder) and ships it through the exchange — all of
//     it hidden behind the remaining compute.
//   - After commit, the sync phase only walks the owned changed set for
//     local bookkeeping and drains the already-buffered remote chunks
//     (comm.Exchange.Finish): the exposed communication is the decode
//     tail, not the whole exchange.
//
// Push-mode supersteps cannot stream (an owned vertex's new value is only
// known once commit has folded every thread's proposals). They open the
// same exchange after commit (deltaSync), drain the whole owned range over
// the committed values and send each peer one final chunk: same wire
// format, same broadcast, same apply, all of it exposed as sync time.
//
// Every batch goes to every peer, so every rank holds every value and the
// whole frontier after each superstep: the push/pull statistic and the
// termination test are local, no superstep needs a collective count, and a
// push superstep relaxes the whole frontier into the destinations its rank
// owns, so this exchange is the superstep's only message round.

// streamBatchMin/Max clamp the streamed batch size. The actual threshold
// is a quarter of the owned range (streamBegin), so a dense superstep
// streams a handful of batches whatever the graph size: batches must
// leave throughout compute to hide link latency (a batch held back until
// the tail flush hides nothing), but each batch costs a 13-byte header
// and a send syscall per peer, so tiny graphs must not degenerate into
// per-chunk messages.
const (
	streamBatchMin = 512
	streamBatchMax = 8192
)

// streamState is the engine-owned working set of the delta-sync stream,
// allocated once and reused every superstep.
type streamState[V comparable] struct {
	active     bool
	overlapped bool  // opened before compute (pull) rather than after commit (push)
	batchCap   int   // per-superstep flush threshold (streamBegin)
	staged     []V   // array the emission reads (streamBegin)
	err        error // first send failure, surfaced by streamFlush

	ex     *comm.Exchange // nil until opened (streamExchange)
	enc    compress.StreamEncoder
	bytes0 int64 // transport BytesSent when the stream opened
	hidden int64 // bytes sent while compute was still running

	// Pending (id, wire-word) pairs for the broadcast.
	ids  []graph.VertexID
	vals []uint64

	drainBody func(clo, chi uint32)
	applyBody func(from int, chunk []byte) error
	decodeCB  func(id uint32, bits uint64) error
}

// streamInit binds the pre-created stream bodies (no per-superstep
// closures) and the per-chunk encoder. Called once the run's codec is
// resolved (bindDomain).
func (e *Engine[V]) streamInit() {
	s := &e.stream
	s.enc = compress.NewStreamEncoder(e.codec)
	s.drainBody = e.streamDrain
	s.applyBody = e.streamApply
	s.decodeCB = e.applyStreamDelta
}

// overlapSync reports whether this run streams delta-sync during compute.
// A single worker has no peer: its sync is pure local bookkeeping.
func (e *Engine[V]) overlapSync() bool { return e.comm.Size() > 1 }

// streamBegin opens the superstep's stream over staged, the array the drain
// reads values from; the exchange itself opens lazily (streamExchange). An
// overlapped stream is opened between the changed-set reset and the
// dispatch of a pull-style compute (staged is the kernel's scratch array)
// and ships batches as chunks finish; a push superstep's is opened after
// commit (staged is the value array) and holds everything for one final
// chunk per peer, since nothing computes behind it.
func (e *Engine[V]) streamBegin(staged []V, overlapped bool) {
	s := &e.stream
	s.active = true
	s.overlapped = overlapped
	s.staged = staged
	s.err = nil
	s.hidden = 0
	s.bytes0 = e.comm.T.Stats().BytesSent
	s.batchCap = math.MaxInt
	if overlapped {
		s.batchCap = min(max(int(e.hi-e.lo)/4, streamBatchMin), streamBatchMax)
	}
	s.ids, s.vals = s.ids[:0], s.vals[:0]
}

// computeOwned dispatches a pull-style compute body over the owned range,
// through the overlap phase when this superstep is streaming.
func (e *Engine[V]) computeOwned(body func(clo, chi uint32, thread int)) ws.Stats {
	if e.stream.active {
		return e.sched.RunOverlap(uint32(e.lo), uint32(e.hi), body, e.stream.drainBody)
	}
	return e.sched.Run(uint32(e.lo), uint32(e.hi), body)
}

// streamDrain is the per-finished-chunk emission, running on the
// dispatching goroutine while other chunks still compute: collect the
// chunk's changed (id, staged value) pairs and ship full batches.
func (e *Engine[V]) streamDrain(clo, chi uint32) {
	s := &e.stream
	if s.err != nil {
		return
	}
	it := e.changed.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		s.ids = append(s.ids, graph.VertexID(i))
		s.vals = append(s.vals, e.dom.Bits(s.staged[i]))
	}
	if len(s.ids) >= s.batchCap {
		e.streamSend(false)
	}
}

// streamSend encodes the pending batch once and broadcasts it. A
// final batch doubles as each peer's end marker (SendFinalChunk), so the
// common single-batch superstep pays one message per peer — an AllGather's
// count — while still leaving during compute.
func (e *Engine[V]) streamSend(final bool) {
	s := &e.stream
	if len(s.ids) == 0 {
		return
	}
	payload, name := s.enc.EncodeChunk(s.ids, s.vals)
	e.curState.picks()[name]++
	ex := e.streamExchange()
	me := e.comm.Rank()
	for r := 0; r < e.comm.Size(); r++ {
		if r == me {
			continue
		}
		var err error
		if final {
			err = ex.SendFinalChunk(r, payload)
		} else {
			err = ex.SendChunk(r, payload)
		}
		if err != nil {
			s.err = err
			break
		}
	}
	s.ids, s.vals = s.ids[:0], s.vals[:0]
}

// streamExchange returns the superstep's exchange, opening it on first use:
// a rank opens it at its first send, or at the drain if it sent nothing.
// Every rank opens exactly one per superstep, so the ranks' exchange rounds
// stay in step.
func (e *Engine[V]) streamExchange() *comm.Exchange {
	if e.stream.ex == nil {
		e.stream.ex = e.comm.StartExchange()
	}
	return e.stream.ex
}

// streamFlush ships the partial tail batches after the drain and surfaces
// any send error it hit. An overlapped stream flushes before commit. The
// hidden-bytes count is taken before the tail leaves: only bytes the drain
// sent while compute was actually running are overlap — the tail flush is
// merely early, not hidden (and a push superstep's stream, which sends
// nothing before its flush, hides nothing).
func (e *Engine[V]) streamFlush() error {
	s := &e.stream
	if s.ex != nil {
		s.hidden = s.ex.SentBytes()
	}
	if s.err == nil {
		e.streamSend(true)
	}
	return s.err
}

// syncStreamed completes the superstep's exchange after commit: local
// bookkeeping over the owned changed set, then the exchange drain applying
// every remote chunk (for an overlapped stream, already buffered by the
// transport while compute ran). A rank that sent nothing still drains: its
// end markers are what its peers wait for.
func (e *Engine[V]) syncStreamed(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
	s := &e.stream
	defer func() {
		s.active = false
		s.staged = nil
		s.ex = nil
	}()
	e.noteOwnedChanged(st, changed, frontier, iter)
	e.decFrontier, e.decIter = frontier, iter
	err := e.streamExchange().Finish(s.applyBody)
	e.decFrontier = nil
	if err != nil {
		return err
	}
	if s.overlapped {
		st.run.OverlappedSyncs++
	}
	stat.StreamedBytes = s.hidden
	stat.SyncBytes += e.comm.T.Stats().BytesSent - s.bytes0
	return nil
}

// streamApply decodes one remote chunk during the exchange drain.
func (e *Engine[V]) streamApply(_ int, chunk []byte) error {
	return e.codec.Decode(chunk, e.stream.decodeCB)
}

// applyStreamDelta applies one remote delta: every sender streams only
// vertices it owns, so an owned id in a remote chunk is a protocol error.
func (e *Engine[V]) applyStreamDelta(id uint32, bits uint64) error {
	if int(id) >= e.g.NumVertices() {
		return fmt.Errorf("core: streamed delta for out-of-range vertex %d", id)
	}
	if graph.VertexID(id) >= e.lo && graph.VertexID(id) < e.hi {
		return fmt.Errorf("core: peer streamed a delta for vertex %d owned here", id)
	}
	e.curState.values[id] = e.dom.FromBits(bits)
	if e.decFrontier != nil {
		e.decFrontier.Set(int(id))
	}
	e.curState.markChanged(graph.VertexID(id), e.decIter)
	return nil
}
