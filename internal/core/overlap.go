package core

import (
	"fmt"

	"slfe/internal/bitset"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// This file implements the overlapped superstep pipeline: instead of
// waiting for the compute barrier and then paying encode + exchange +
// decode on the critical path, pull-style supersteps stream their
// delta-sync frames while compute is still running. The pieces:
//
//   - BSP purity is what makes early emission safe: compute stages every
//     new value into the kernel's scratch array (the double buffer — the
//     live value array is untouched until commit), and a vertex's scratch
//     slot and changed bit are written only by the chunk that owns it. A
//     chunk's deltas are therefore final the moment its compute finishes,
//     superstep-commit or not.
//   - ws.RunOverlap hands each finished chunk, in ascending vertex order,
//     to the engine's drain on the dispatching goroutine while workers
//     compute the rest. The drain batches changed (id, scratch value)
//     pairs — packed into the domain's wire words as they are collected —
//     encodes each batch with per-chunk codec selection
//     (compress.StreamEncoder) and ships it through the comm layer's
//     streaming exchange — all of it hidden behind the remaining compute.
//   - After commit, the sync phase only walks the owned changed set for
//     local bookkeeping and drains the already-buffered remote chunks
//     (comm.Exchange.Finish): the exposed communication is the decode
//     tail, not the whole exchange.
//
// Push-mode supersteps cannot stream (an owned vertex's new value is only
// known after the proposal AllToAll) and fall back to the serial
// delta-sync within the same run. The serial path survives behind
// Config.SerialSync as the differential oracle; both paths are
// bit-identical across dense|sparse|adaptive by the strategy-invariance
// contract differential_test.go enforces.
//
// Strategy selection: the serial adaptive mode sizes the current superstep
// with a changed-count AllReduce — unavailable here, since streaming
// starts before the count exists. The overlapped adaptive mode instead
// uses the previous superstep's global changed count (already agreed by
// every rank, so the choice stays consistent cluster-wide), falling back
// to dense when no count exists yet (first superstep, checkpoint resume).
// Frontiers shrink and grow smoothly, so the one-superstep lag costs a
// little traffic on transition supersteps and changes no results.

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

// streamState is the engine-owned working set of the overlapped delta-sync,
// allocated once and reused every superstep.
type streamState[V comparable] struct {
	active   bool
	sparse   bool // this superstep's strategy (dense broadcast vs routed)
	iter     int
	batchCap int   // per-superstep flush threshold (streamBegin)
	staged   []V   // kernel scratch the emission reads
	err      error // first send failure, surfaced by streamFlush

	ex     *comm.Exchange
	enc    compress.StreamEncoder
	bytes0 int64 // transport BytesSent when the stream opened
	hidden int64 // bytes sent while compute was still running

	// Dense batch: pending (id, wire-word) pairs for the broadcast.
	ids  []graph.VertexID
	vals []uint64
	// Sparse batches: pending pairs per destination rank, plus the last
	// vertex routed to each rank this superstep (-1: none) — duplicate
	// suppression must survive a mid-vertex batch flush, so it cannot key
	// off the (reset) buffer tail.
	destIDs  [][]graph.VertexID
	destVals [][]uint64
	destLast []int64

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
// Single-worker runs have nothing to stream and keep the serial path (one
// rank's sync is pure local bookkeeping either way).
func (e *Engine[V]) overlapSync() bool {
	return !e.cfg.SerialSync && e.comm.Size() > 1
}

// streamBegin opens the superstep's streaming exchange. Called between the
// changed-set reset and compute dispatch, only when overlapSync() holds and
// the kernel's superstep is pull-style (staged is its scratch array).
func (e *Engine[V]) streamBegin(staged []V, iter int) {
	s := &e.stream
	s.active = true
	s.staged = staged
	s.iter = iter
	s.err = nil
	s.hidden = 0
	s.bytes0 = e.comm.T.Stats().BytesSent
	s.batchCap = int(e.hi-e.lo) / 4
	if s.batchCap < streamBatchMin {
		s.batchCap = streamBatchMin
	}
	if s.batchCap > streamBatchMax {
		s.batchCap = streamBatchMax
	}
	s.sparse = false
	switch e.cfg.Sync {
	case SyncSparse:
		s.sparse = true
	case SyncAdaptive:
		s.sparse = e.lastGlobalChanged >= 0 &&
			e.lastGlobalChanged*e.cfg.SparseDivisor < int64(e.g.NumVertices())
	}
	s.ids, s.vals = s.ids[:0], s.vals[:0]
	if s.sparse {
		size := e.comm.Size()
		for len(s.destIDs) < size {
			s.destIDs = append(s.destIDs, nil)
			s.destVals = append(s.destVals, nil)
			s.destLast = append(s.destLast, 0)
		}
		for r := 0; r < size; r++ {
			s.destIDs[r], s.destVals[r] = s.destIDs[r][:0], s.destVals[r][:0]
			s.destLast[r] = -1
		}
	}
	s.ex = e.comm.StartExchange()
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
	if s.sparse {
		e.streamDrainSparse(clo, chi)
		return
	}
	it := e.changed.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		s.ids = append(s.ids, graph.VertexID(i))
		s.vals = append(s.vals, e.dom.Bits(s.staged[i]))
	}
	if len(s.ids) >= s.batchCap {
		e.streamSendDense(false)
	}
}

// streamDrainSparse routes the chunk's changed vertices to the ranks owning
// one of their out-neighbours — the same destination rule as syncSparse,
// with the same consecutive-duplicate suppression over the ascending
// adjacency list.
func (e *Engine[V]) streamDrainSparse(clo, chi uint32) {
	s := &e.stream
	me := e.comm.Rank()
	it := e.changed.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		id := graph.VertexID(i)
		val := e.dom.Bits(s.staged[i])
		for _, u := range e.curs[len(e.curs)-1].OutNeighbors(id) {
			r := e.owner(u)
			if r == me {
				continue
			}
			if s.destLast[r] == int64(id) {
				continue // already routed to this rank
			}
			s.destLast[r] = int64(id)
			s.destIDs[r] = append(s.destIDs[r], id)
			s.destVals[r] = append(s.destVals[r], val)
			if len(s.destIDs[r]) >= s.batchCap {
				e.streamSendDest(r, false)
				if s.err != nil {
					return
				}
			}
		}
	}
}

// streamSendDense encodes the pending batch once and broadcasts it. A
// final batch doubles as each peer's end marker (SendFinalChunk), so the
// common single-batch superstep pays one message per peer — the serial
// AllGather's count — while still leaving during compute.
func (e *Engine[V]) streamSendDense(final bool) {
	s := &e.stream
	if len(s.ids) == 0 {
		return
	}
	payload, name := s.enc.EncodeChunk(s.ids, s.vals)
	e.curState.picks()[name]++
	me := e.comm.Rank()
	for r := 0; r < e.comm.Size(); r++ {
		if r == me {
			continue
		}
		var err error
		if final {
			err = s.ex.SendFinalChunk(r, payload)
		} else {
			err = s.ex.SendChunk(r, payload)
		}
		if err != nil {
			s.err = err
			break
		}
	}
	s.ids, s.vals = s.ids[:0], s.vals[:0]
}

// streamSendDest encodes and sends rank r's pending routed batch.
func (e *Engine[V]) streamSendDest(r int, final bool) {
	s := &e.stream
	if len(s.destIDs[r]) == 0 {
		return
	}
	payload, name := s.enc.EncodeChunk(s.destIDs[r], s.destVals[r])
	e.curState.picks()[name]++
	var err error
	if final {
		err = s.ex.SendFinalChunk(r, payload)
	} else {
		err = s.ex.SendChunk(r, payload)
	}
	if err != nil {
		s.err = err
	}
	s.destIDs[r], s.destVals[r] = s.destIDs[r][:0], s.destVals[r][:0]
}

// streamFlush ships the partial tail batches after compute returns and
// surfaces any send error the drain hit. The flush still precedes commit,
// so its (small) cost sits where the serial path's whole encode used to.
// The hidden-bytes count is taken before the tail leaves: only bytes the
// drain sent while compute was actually running are overlap — the tail
// flush is merely early, not hidden.
func (e *Engine[V]) streamFlush() error {
	s := &e.stream
	s.hidden = s.ex.SentBytes()
	if s.err == nil {
		if s.sparse {
			me := e.comm.Rank()
			for r := 0; r < e.comm.Size() && s.err == nil; r++ {
				if r != me {
					e.streamSendDest(r, true)
				}
			}
		} else {
			e.streamSendDense(true)
		}
	}
	return s.err
}

// syncStreamed is the overlapped counterpart of syncOwned, entered after
// commit: local bookkeeping over the owned changed set, then the exchange
// drain applying every remote chunk (already buffered by the transport
// while compute ran), then the changed-count AllReduce the sparse modes
// need for termination and the next superstep's strategy choice.
func (e *Engine[V]) syncStreamed(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
	s := &e.stream
	defer func() {
		s.active = false
		s.staged = nil
		s.ex = nil
	}()
	local := e.noteOwnedChanged(st, changed, frontier, iter, s.sparse)
	e.decFrontier, e.decIter = frontier, iter
	err := s.ex.Finish(s.applyBody)
	e.decFrontier = nil
	if err != nil {
		return err
	}
	if e.sparseSync() {
		// The same changed-count AllReduce the serial sparse modes run,
		// moved after the exchange: it feeds termination checks and the
		// next superstep's adaptive estimate, so it must stay collective
		// and cluster-consistent.
		g, err := e.comm.AllReduceI64(local, comm.OpSum)
		if err != nil {
			return err
		}
		e.lastGlobalChanged = g
	}
	if s.sparse {
		st.run.SparseSyncs++
		stat.SyncSparse = true
	} else {
		st.run.DenseSyncs++
	}
	st.run.OverlappedSyncs++
	stat.StreamedBytes = s.hidden
	stat.SyncBytes += e.comm.T.Stats().BytesSent - s.bytes0
	return nil
}

// streamApply decodes one remote chunk during the exchange drain.
func (e *Engine[V]) streamApply(_ int, chunk []byte) error {
	return e.codec.Decode(chunk, e.stream.decodeCB)
}

// applyStreamDelta applies one remote delta: every sender streams only
// vertices it owns, so an owned id in a remote chunk is a protocol error
// under the sparse routing (the serial sparse path enforces the same) and
// impossible under dense ownership partitioning.
func (e *Engine[V]) applyStreamDelta(id uint32, bits uint64) error {
	if int(id) >= e.g.NumVertices() {
		return fmt.Errorf("core: streamed delta for out-of-range vertex %d", id)
	}
	owned := graph.VertexID(id) >= e.lo && graph.VertexID(id) < e.hi
	if owned {
		if e.stream.sparse {
			return fmt.Errorf("core: peer streamed a delta for vertex %d owned here", id)
		}
	} else {
		e.curState.values[id] = e.dom.FromBits(bits)
	}
	if e.decFrontier != nil {
		e.decFrontier.Set(int(id))
	}
	e.curState.markChanged(graph.VertexID(id), e.decIter)
	return nil
}
