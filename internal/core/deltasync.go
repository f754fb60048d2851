package core

import (
	"slfe/internal/bitset"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// SyncAdaptive named the per-superstep choice between broadcasting and
// routing deltas. Delta-sync always broadcasts now.
//
// Deprecated: has no effect.
const SyncAdaptive = 2

// picks returns the run's codec-choice counter map, created on first use
// and reused for the rest of the run (incrementing an existing key does not
// allocate).
func (st *state[V]) picks() map[string]int64 {
	if st.run.CodecPicks == nil {
		st.run.CodecPicks = make(map[string]int64)
	}
	return st.run.CodecPicks
}

// deltaSync distributes this worker's changed owned vertices to every peer
// and applies every received delta to values and the next frontier, so each
// rank ends the superstep holding every value and the whole frontier. Every
// multi-rank superstep goes through the streaming exchange (overlap.go): a
// pull superstep opened it before compute and streamed while computing; a
// push superstep cannot (an owned vertex's new value is only known once
// commit has folded every thread's proposals), so it opens the same
// exchange now, over the committed values, and sends each peer one final
// chunk.
func (e *Engine[V]) deltaSync(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
	if e.comm.Size() == 1 {
		// One rank owns every vertex and commit already applied every
		// value: there is no peer to encode for, so the changed set itself
		// is the delta batch.
		e.noteOwnedChanged(st, changed, frontier, iter)
		return nil
	}
	if !e.stream.active {
		e.streamBegin(st.values, false)
		e.streamDrain(uint32(e.lo), uint32(e.hi))
		if err := e.streamFlush(); err != nil {
			return err
		}
	}
	return e.syncStreamed(st, changed, frontier, iter, stat)
}

// noteOwnedChanged is the local half of a delta-sync: every changed owned
// vertex (its value is already committed) joins the next frontier and
// records its last-change iteration.
func (e *Engine[V]) noteOwnedChanged(st *state[V], changed, frontier *bitset.Atomic, iter int) {
	if frontier == nil && st.lastChange == nil {
		return
	}
	it := changed.IterIn(int(e.lo), int(e.hi))
	for i := it.Next(); i >= 0; i = it.Next() {
		if frontier != nil {
			frontier.Set(i)
		}
		st.markChanged(graph.VertexID(i), iter)
	}
}
