package core

import (
	"fmt"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// SyncStrategy selects how changed owned values are distributed each
// superstep (the delta-sync phase). §4.2 attributes much of SLFE's win to
// reduced inter-node communication; the sparse strategies attack exactly
// that by shipping each delta only to the ranks that read it.
type SyncStrategy int

const (
	// SyncDense streams every changed owned vertex to all ranks: the
	// default, and the cheapest choice on dense supersteps.
	SyncDense SyncStrategy = iota
	// SyncSparse always routes deltas point-to-point: a changed vertex is
	// sent only to the ranks owning one of its out-neighbours (the ranks
	// that read its value in pull mode or probe its frontier bit).
	SyncSparse
	// SyncAdaptive picks dense or sparse per superstep from the previous
	// superstep's global changed count (agreed by every rank, so the choice
	// is identical cluster-wide); the first superstep, and the first after a
	// checkpoint resume, have no count yet and go dense.
	SyncAdaptive
)

// sparseDivisor is SyncAdaptive's threshold: a superstep synchronises
// sparsely when the previous superstep's global changed count times
// sparseDivisor is below |V|.
const sparseDivisor = 16

func (s SyncStrategy) String() string {
	switch s {
	case SyncDense:
		return "dense"
	case SyncSparse:
		return "sparse"
	case SyncAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("SyncStrategy(%d)", int(s))
}

// ParseSyncStrategy maps flag spellings to strategies ("" means dense).
func ParseSyncStrategy(s string) (SyncStrategy, error) {
	switch s {
	case "", "dense":
		return SyncDense, nil
	case "sparse":
		return SyncSparse, nil
	case "adaptive":
		return SyncAdaptive, nil
	}
	return SyncDense, fmt.Errorf("core: unknown delta-sync strategy %q (want dense | sparse | adaptive)", s)
}

// sparseSync reports whether the sparse exchange can occur this run, which
// is what decides whether frontier statistics must be computed collectively
// (a rank then only holds the frontier bits it needs, not the global set).
func (e *Engine[V]) sparseSync() bool { return e.cfg.Sync != SyncDense }

// picks returns the run's codec-choice counter map, created on first use
// and reused for the rest of the run (incrementing an existing key does not
// allocate).
func (st *state[V]) picks() map[string]int64 {
	if st.run.CodecPicks == nil {
		st.run.CodecPicks = make(map[string]int64)
	}
	return st.run.CodecPicks
}

// deltaSync distributes this worker's changed owned vertices and applies
// every received delta to values and the next frontier. Every multi-rank
// superstep goes through the streaming exchange (overlap.go): a pull
// superstep opened it before compute and streamed while computing; a push
// superstep cannot (an owned vertex's new value is only known after the
// proposal exchange), so it opens the same exchange now, over the committed
// values, and sends each peer one final chunk.
func (e *Engine[V]) deltaSync(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
	if e.comm.Size() == 1 {
		// One rank owns every vertex and commit already applied every
		// value: there is no peer to encode for, so the changed set itself
		// is the delta batch.
		sparse := e.cfg.Sync == SyncSparse
		local := e.noteOwnedChanged(st, changed, frontier, iter, sparse)
		if e.sparseSync() {
			e.lastGlobalChanged = local
		}
		if sparse {
			st.run.SparseSyncs++
			stat.SyncSparse = true
		} else {
			st.run.DenseSyncs++
		}
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
// vertex (its value is already committed) joins the next frontier, records
// its last-change iteration and updates the sparse-dirty set — marked when
// this superstep distributes sparsely (stale on uninterested ranks until
// the termination flush), cleared when a dense broadcast supersedes any
// earlier sparse-only distribution. Returns the number of such vertices.
func (e *Engine[V]) noteOwnedChanged(st *state[V], changed, frontier *bitset.Atomic, iter int, sparse bool) int64 {
	if frontier == nil && st.lastChange == nil && e.dirty == nil {
		return int64(changed.CountRange(int(e.lo), int(e.hi)))
	}
	var local int64
	it := changed.IterIn(int(e.lo), int(e.hi))
	for i := it.Next(); i >= 0; i = it.Next() {
		local++
		if frontier != nil {
			frontier.Set(i)
		}
		st.markChanged(graph.VertexID(i), iter)
		if e.dirty != nil {
			if sparse {
				e.dirty.Set(i)
			} else {
				e.dirty.Clear(i)
			}
		}
	}
	return local
}

// flushSparse restores the full-replication invariant a dense superstep
// keeps: each owned value whose latest update travelled only the sparse
// routing is re-broadcast once at termination, so every worker returns
// identical results. With TrackLastChange the per-vertex last-change
// iterations are flushed the same way (as uint32 wire words, which fit
// either width). The flush is a collective, entered by all ranks whenever
// sparse sync is configured, even if no superstep actually went sparse.
func (e *Engine[V]) flushSparse(st *state[V]) error {
	if e.dirty == nil {
		return nil
	}
	start := time.Now()
	bytes0 := e.comm.T.Stats().BytesSent
	var ids []graph.VertexID
	var vals []uint64
	e.dirty.RangeIn(int(e.lo), int(e.hi), func(i int) bool {
		ids = append(ids, graph.VertexID(i))
		vals = append(vals, e.dom.Bits(st.values[i]))
		return true
	})
	err := e.flushGather(st, ids, vals, func(id uint32, bits uint64) {
		st.values[id] = e.dom.FromBits(bits)
	})
	if err != nil {
		return err
	}
	if st.lastChange != nil {
		lc := make([]uint64, len(ids))
		for i, id := range ids {
			lc[i] = uint64(uint32(st.lastChange[id]))
		}
		err := e.flushGather(st, ids, lc, func(id uint32, bits uint64) {
			st.lastChange[id] = int32(uint32(bits))
		})
		if err != nil {
			return err
		}
	}
	e.dirty.Reset()
	st.run.FlushBytes += e.comm.T.Stats().BytesSent - bytes0
	st.run.SyncTime += time.Since(start)
	return nil
}

// flushFrontier broadcasts the owned bits of frontier, so every rank holds
// all of it. A collective, like flushSparse.
func (e *Engine[V]) flushFrontier(st *state[V], frontier *bitset.Atomic) error {
	if frontier == nil {
		return nil
	}
	var ids []graph.VertexID
	frontier.RangeIn(int(e.lo), int(e.hi), func(i int) bool {
		ids = append(ids, graph.VertexID(i))
		return true
	})
	return e.flushGather(st, ids, make([]uint64, len(ids)), func(id uint32, _ uint64) {
		frontier.Set(int(id))
	})
}

// flushGather broadcasts one owned (id, wire-word) batch as a single codec
// payload and applies every remote rank's batch through apply.
func (e *Engine[V]) flushGather(st *state[V], ids []graph.VertexID, vals []uint64, apply func(id uint32, bits uint64)) error {
	payload, name := e.stream.enc.EncodeChunk(ids, vals)
	st.picks()[name]++
	blobs, err := e.comm.AllGather(payload)
	if err != nil {
		return err
	}
	n := e.g.NumVertices()
	for rank, b := range blobs {
		if rank == e.comm.Rank() {
			continue
		}
		err := e.codec.Decode(b, func(id uint32, bits uint64) error {
			if int(id) >= n {
				return fmt.Errorf("core: flush delta for out-of-range vertex %d", id)
			}
			apply(id, bits)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
