package core

import (
	"fmt"
	"math/bits"

	"slfe/internal/compress"
	"slfe/internal/graph"
)

// This file implements the push-mode proposal exchange as a flat combiner:
// engine-owned, superstep-reusable append buffers and dense per-owner
// scatter arrays, which keep the steady-state push superstep
// allocation-free.
//
// Flat combining, per superstep:
//
//  1. compute (kernel_minmax.pushBody): each thread appends raw
//     (dst, proposal) pairs into its per-destination-rank pairBuf,
//     combining consecutive duplicates in place. Ownership lookups are
//     amortised by a per-source cursor over the ascending adjacency list.
//  2. combine (combineRank, one scheduler task per destination rank). This
//     rank's own proposals are already home: its task folds every thread's
//     pairs straight into the value array (foldOwn), so steps 3 and 4 are
//     for peers only, and a one-rank run neither combines nor encodes. For
//     a peer r, all threads' pairs are folded into a dense per-owner value
//     array indexed by (id - lo_r), guarded by a `seen` bitset with a
//     second-level `blocks` bitmap (one bit per seen-word). The fold is the
//     program's Better-merge, made order-insensitive by the aggregation's
//     total order.
//  3. emit: ids are produced in ascending order without sorting — a dense
//     batch scans every seen-word, a sparse one walks only the touched
//     blocks (the sort-free bucketed merge), chosen by the batch's own
//     density. Both emit orders are identical, so the wire format does not
//     depend on the heuristic. The scanned words are cleared on the way
//     out, restoring the all-clear invariant the next superstep relies on.
//     Values leave the emit already packed into the domain's wire words.
//  4. encode + SparseExchange: each peer's batch is encoded by that peer's
//     compress.StreamEncoder into its reusable buffer (transports do not
//     retain payloads after Send) and sent as that peer's one chunk of an
//     exchange round.

// pairBuf is one thread's append buffer of proposals for one destination
// rank. Length resets every push superstep; capacity is retained.
type pairBuf[V comparable] struct {
	ids  []graph.VertexID
	vals []V
}

// rankCombiner merges every thread's proposals for one destination rank.
// All storage is indexed relative to the rank's owned range and reused
// across supersteps; seen and blocks are all-clear between supersteps.
type rankCombiner[V comparable] struct {
	lo, hi  graph.VertexID // owned range the arrays are sized for
	vals    []V            // dense candidate per local index
	seen    []uint64       // bit per local index: vals[li] is live
	blocks  []uint64       // bit per seen-word: word has live bits
	bits    func(V) uint64 // the domain's wire packing
	outIDs  []graph.VertexID
	outVals []uint64 // emitted proposals, packed as wire words
}

// ensure sizes the combiner for the rank's current owned range (which can
// drift under dynamic rebalancing). Growth re-allocates; the all-clear
// invariant makes plain reslicing safe otherwise.
func (cb *rankCombiner[V]) ensure(lo, hi graph.VertexID) {
	cb.lo, cb.hi = lo, hi
	n := int(hi) - int(lo)
	if n < 0 {
		n = 0
	}
	if cap(cb.vals) >= n {
		cb.vals = cb.vals[:n]
	} else {
		cb.vals = make([]V, n)
	}
	words := (n + 63) / 64
	if cap(cb.seen) >= words {
		cb.seen = cb.seen[:words]
	} else {
		cb.seen = make([]uint64, words)
	}
	bw := (words + 63) / 64
	if cap(cb.blocks) >= bw {
		cb.blocks = cb.blocks[:bw]
	} else {
		cb.blocks = make([]uint64, bw)
	}
}

// pushState is the engine-owned working set of the flat push exchange,
// allocated on the first push superstep and reused for the rest of the
// engine's lifetime.
type pushState[V comparable] struct {
	bufs  [][]pairBuf[V] // [thread][rank] append buffers
	comb  []rankCombiner[V]
	enc   []compress.StreamEncoder // per destination rank
	blobs [][]byte                 // per-rank payloads, aliasing enc's buffers

	// Per-superstep context for the pre-created task/decode closures.
	prog    *Program[V]
	updates int64

	combineFn func(r int)
	decodeFn  func(id uint32, bits uint64) error
}

// pushInit lazily builds the push working set and resets it for a new
// superstep.
func (e *Engine[V]) pushInit(p *Program[V]) *pushState[V] {
	if e.push == nil {
		threads := e.sched.Threads()
		size := e.comm.Size()
		ps := &pushState[V]{
			bufs:  make([][]pairBuf[V], threads),
			comb:  make([]rankCombiner[V], size),
			enc:   make([]compress.StreamEncoder, size),
			blobs: make([][]byte, size),
		}
		for t := range ps.bufs {
			ps.bufs[t] = make([]pairBuf[V], size)
		}
		for r := range ps.comb {
			ps.comb[r].bits = e.dom.Bits
			ps.enc[r] = compress.NewStreamEncoder(e.codec)
		}
		ps.combineFn = e.combineRank
		ps.decodeFn = e.applyPushDelta
		e.push = ps
	}
	ps := e.push
	ps.prog = p
	ps.updates = 0
	for t := range ps.bufs {
		for r := range ps.bufs[t] {
			b := &ps.bufs[t][r]
			b.ids, b.vals = b.ids[:0], b.vals[:0]
		}
	}
	return ps
}

// combineRank is the per-destination-rank scheduler task: for a peer, fold,
// emit in ascending order, clear, encode; for this rank, foldOwn.
func (e *Engine[V]) combineRank(r int) {
	if r == e.comm.Rank() {
		e.foldOwn()
		return
	}
	ps := e.push
	p := ps.prog
	lo, hi := e.part.Range(r)
	cb := &ps.comb[r]
	cb.ensure(lo, hi)
	entries := 0
	for t := range ps.bufs {
		b := &ps.bufs[t][r]
		entries += len(b.ids)
		for i, id := range b.ids {
			li := int(id - lo)
			wi, mask := li>>6, uint64(1)<<(uint(li)&63)
			if cb.seen[wi]&mask == 0 {
				cb.seen[wi] |= mask
				cb.blocks[wi>>6] |= 1 << (uint(wi) & 63)
				cb.vals[li] = b.vals[i]
			} else if p.Better(b.vals[i], cb.vals[li]) {
				cb.vals[li] = b.vals[i]
			}
		}
	}
	cb.outIDs, cb.outVals = cb.outIDs[:0], cb.outVals[:0]
	if entries >= (int(hi)-int(lo))/8 {
		// Dense batch: scan every word; clearing blocks wholesale is
		// cheaper than tracking them.
		for wi := range cb.seen {
			cb.emitWord(wi)
		}
		for i := range cb.blocks {
			cb.blocks[i] = 0
		}
	} else {
		// Sparse batch: walk only the touched 64-id buckets.
		for bwi, bw := range cb.blocks {
			if bw == 0 {
				continue
			}
			cb.blocks[bwi] = 0
			for bw != 0 {
				cb.emitWord(bwi<<6 + bits.TrailingZeros64(bw))
				bw &= bw - 1
			}
		}
	}
	ps.blobs[r], _ = ps.enc[r].EncodeChunk(cb.outIDs, cb.outVals) // proposal picks stay uncounted
}

// foldOwn applies this rank's own proposals to its owned values. Folding
// every thread's pairs in turn leaves each vertex at the best of its
// proposals, as combining first would; the changed bit counts one update per
// improved vertex. It runs before any peer's proposals are decoded, and no
// other combine task touches the value array.
func (e *Engine[V]) foldOwn() {
	ps := e.push
	p, values, own := ps.prog, e.curState.values, e.comm.Rank()
	var updates int64
	for t := range ps.bufs {
		b := &ps.bufs[t][own]
		for i, id := range b.ids {
			if p.Better(b.vals[i], values[id]) {
				values[id] = b.vals[i]
				if e.changed.TestAndSet(int(id)) {
					updates++
				}
			}
		}
	}
	ps.updates += updates
}

// emitWord appends seen word wi's live (id, wire-word) pairs in ascending
// order and clears the word.
func (cb *rankCombiner[V]) emitWord(wi int) {
	w := cb.seen[wi]
	if w == 0 {
		return
	}
	cb.seen[wi] = 0
	for w != 0 {
		li := wi<<6 + bits.TrailingZeros64(w)
		w &= w - 1
		cb.outIDs = append(cb.outIDs, cb.lo+graph.VertexID(li))
		cb.outVals = append(cb.outVals, cb.bits(cb.vals[li]))
	}
}

// exchangePushFlat combines, exchanges and applies push proposals through
// the flat path. The per-rank combine tasks run on the scheduler (this
// rank's folds its own proposals in place); decode applies peers'
// proposals to the owned range.
func (e *Engine[V]) exchangePushFlat(updates *int64) error {
	ps := e.push
	e.sched.Tasks(e.comm.Size(), ps.combineFn)
	got, err := e.comm.SparseExchange(ps.blobs)
	if err != nil {
		return err
	}
	for r, blob := range got {
		if r == e.comm.Rank() {
			continue // folded in place; its blob stays nil
		}
		if err := e.codec.Decode(blob, ps.decodeFn); err != nil {
			return err
		}
	}
	*updates += ps.updates
	return nil
}

// applyPushDelta is the pre-created decode callback of the flat exchange.
func (e *Engine[V]) applyPushDelta(id uint32, bits uint64) error {
	if graph.VertexID(id) < e.lo || graph.VertexID(id) >= e.hi {
		return fmt.Errorf("core: proposal for non-owned vertex %d", id)
	}
	ps := e.push
	st := e.curState
	val := e.dom.FromBits(bits)
	if ps.prog.Better(val, st.values[id]) {
		st.values[id] = val
		e.changed.Set(int(id))
		ps.updates++
	}
	return nil
}
