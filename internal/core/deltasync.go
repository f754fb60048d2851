package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// SyncStrategy selects how changed owned values are distributed each
// superstep (the delta-sync phase). §4.2 attributes much of SLFE's win to
// reduced inter-node communication; the sparse strategies attack exactly
// that by shipping each delta only to the ranks that read it.
type SyncStrategy int

const (
	// SyncDense broadcasts every delta batch to all ranks (AllGather): the
	// default, the cheapest choice on dense supersteps, and the only
	// strategy compatible with dynamic rebalancing.
	SyncDense SyncStrategy = iota
	// SyncSparse always routes deltas point-to-point: a changed vertex is
	// sent only to the ranks owning one of its out-neighbours (the ranks
	// that read its value in pull mode or probe its frontier bit).
	SyncSparse
	// SyncAdaptive estimates the superstep's density from the global
	// changed count (an AllReduce the sparse modes need anyway) and picks
	// whichever strategy is cheaper for this superstep.
	SyncAdaptive
)

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

// frameSegEntries is the delta-batch segmentation granularity: batches are
// framed as independent codec segments of this many entries so the
// serialisation parallelises across the scheduler. The layout depends only
// on the batch, never on the thread count, keeping the wire format
// deterministic.
const frameSegEntries = 4096

// frameEncode serialises a delta batch of (id, wire-word) pairs as a framed
// codec stream: uvarint segment count, then per segment a uvarint byte
// length and the codec payload. With a nil scheduler (callers already
// inside a scheduler task) segments are encoded serially. The returned map
// counts encoded segments per codec name — the adaptive codec spreads them
// over its candidates.
func frameEncode(sched *ws.Scheduler, codec compress.Codec, ids []uint32, vals []uint64) ([]byte, map[string]int64) {
	picks := make(map[string]int64)
	nSeg := (len(ids) + frameSegEntries - 1) / frameSegEntries
	if nSeg == 0 {
		return binary.AppendUvarint(nil, 0), picks
	}
	_, adaptive := codec.(compress.Adaptive)
	width := codec.Width()
	parts := make([][]byte, nSeg)
	names := make([]string, nSeg)
	enc := func(s int) {
		lo := s * frameSegEntries
		hi := min(lo+frameSegEntries, len(ids))
		if adaptive {
			parts[s], names[s] = compress.EncodeBest(width, ids[lo:hi], vals[lo:hi])
		} else {
			parts[s], names[s] = codec.Encode(ids[lo:hi], vals[lo:hi]), codec.Name()
		}
	}
	if sched != nil && nSeg > 1 {
		sched.Tasks(nSeg, enc)
	} else {
		for s := range parts {
			enc(s)
		}
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	buf := binary.AppendUvarint(make([]byte, 0, total+3*nSeg+3), uint64(nSeg))
	for s, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
		picks[names[s]]++
	}
	return buf, picks
}

// frameDecode walks a frameEncode stream, handing each segment to the
// codec. Truncated or oversized frames are rejected before any slicing.
func frameDecode(codec compress.Codec, buf []byte, fn func(id uint32, val uint64) error) error {
	nSeg, n := binary.Uvarint(buf)
	if n <= 0 {
		return errors.New("core: bad delta frame header")
	}
	off := n
	if nSeg > uint64(len(buf)) {
		return fmt.Errorf("core: delta frame claims %d segments in %d bytes", nSeg, len(buf))
	}
	for s := uint64(0); s < nSeg; s++ {
		segLen, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("core: truncated delta frame at segment %d", s)
		}
		off += n
		if segLen > uint64(len(buf)-off) {
			return fmt.Errorf("core: delta frame segment %d of %d bytes overruns payload", s, segLen)
		}
		if err := codec.Decode(buf[off:off+int(segLen)], fn); err != nil {
			return err
		}
		off += int(segLen)
	}
	if off != len(buf) {
		return fmt.Errorf("core: %d trailing bytes after delta frame", len(buf)-off)
	}
	return nil
}

// foldPicks rolls per-batch codec choices into the run metrics.
func (st *state[V]) foldPicks(picks map[string]int64) {
	if len(picks) == 0 {
		return
	}
	for name, n := range picks {
		st.picks()[name] += n
	}
}

// picks returns the run's codec-choice counter map, created on first use
// and reused for the rest of the run (incrementing an existing key does not
// allocate).
func (st *state[V]) picks() map[string]int64 {
	if st.run.CodecPicks == nil {
		st.run.CodecPicks = make(map[string]int64)
	}
	return st.run.CodecPicks
}

// frameEnc is the engine-owned pooled counterpart of frameEncode: the
// per-segment trial and output buffers, the segment-name table and the
// final frame buffer are all reused across supersteps, so the dense
// delta-sync's serialisation is allocation-free in steady state. The wire
// format is identical to frameEncode's.
type frameEnc struct {
	ids      []graph.VertexID
	vals     []uint64
	adaptive bool
	width    int
	codec    compress.Codec
	appendC  compress.AppendCodec // nil when the codec has no append form
	init     bool
	parts    [][]byte
	names    []string
	scratch  []compress.EncodeScratch
	out      []byte
	body     func(s int)
}

// frameEncodePooled serialises a delta batch like frameEncode, but into
// engine-owned reusable buffers, with segments encoded in parallel on the
// scheduler and per-segment codec choices counted into picks (which must
// not be nil). The returned blob is valid until the next pooled encode;
// transports do not retain it past Send.
func (e *Engine[V]) frameEncodePooled(ids []graph.VertexID, vals []uint64, picks map[string]int64) []byte {
	f := &e.frame
	if !f.init {
		f.init = true
		f.codec = e.codec
		f.width = e.codec.Width()
		_, f.adaptive = e.codec.(compress.Adaptive)
		f.appendC, _ = e.codec.(compress.AppendCodec)
		f.body = e.frameSeg
	}
	nSeg := (len(ids) + frameSegEntries - 1) / frameSegEntries
	if nSeg == 0 {
		f.out = binary.AppendUvarint(f.out[:0], 0)
		return f.out
	}
	for len(f.parts) < nSeg {
		f.parts = append(f.parts, nil)
		f.names = append(f.names, "")
		f.scratch = append(f.scratch, compress.EncodeScratch{})
	}
	f.ids, f.vals = ids, vals
	if nSeg > 1 {
		e.sched.Tasks(nSeg, f.body)
	} else {
		f.body(0)
	}
	f.ids, f.vals = nil, nil
	buf := binary.AppendUvarint(f.out[:0], uint64(nSeg))
	for s := 0; s < nSeg; s++ {
		buf = binary.AppendUvarint(buf, uint64(len(f.parts[s])))
		buf = append(buf, f.parts[s]...)
		picks[f.names[s]]++
	}
	f.out = buf
	return buf
}

// frameSeg encodes one segment into its reusable buffer.
func (e *Engine[V]) frameSeg(s int) {
	f := &e.frame
	lo := s * frameSegEntries
	hi := min(lo+frameSegEntries, len(f.ids))
	ids, vals := f.ids[lo:hi], f.vals[lo:hi]
	switch {
	case f.adaptive:
		f.parts[s], f.names[s] = compress.AppendEncodeBest(f.parts[s][:0], &f.scratch[s], f.width, ids, vals)
	case f.appendC != nil:
		f.parts[s] = f.appendC.AppendEncode(f.parts[s][:0], ids, vals)
		f.names[s] = f.codec.Name()
	default:
		f.parts[s] = f.codec.Encode(ids, vals)
		f.names[s] = f.codec.Name()
	}
}

// collectOwnedChanged lists the changed owned vertices and their values —
// already packed into wire words by the domain — in ascending id order.
// Chunks of the owned range are scanned in parallel into engine-owned
// per-chunk buffers and concatenated in chunk order; all storage (including
// the returned slices) is reused by the next superstep's collection, which
// is safe because delta-sync consumes the batch before returning.
func (e *Engine[V]) collectOwnedChanged(st *state[V], changed *bitset.Atomic) ([]graph.VertexID, []uint64) {
	lo, hi := uint32(e.lo), uint32(e.hi)
	if hi <= lo {
		return nil, nil
	}
	cs := &e.collect
	nParts := int(hi-lo+ws.ChunkSize-1) / ws.ChunkSize
	for len(cs.partIDs) < nParts {
		cs.partIDs = append(cs.partIDs, nil)
		cs.partVals = append(cs.partVals, nil)
	}
	cs.lo, cs.src, cs.values = lo, changed, st.values
	e.sched.Run(lo, hi, cs.body)
	cs.src, cs.values = nil, nil
	cs.ids, cs.vals = cs.ids[:0], cs.vals[:0]
	for i := 0; i < nParts; i++ {
		cs.ids = append(cs.ids, cs.partIDs[i]...)
		cs.vals = append(cs.vals, cs.partVals[i]...)
	}
	return cs.ids, cs.vals
}

// collectChunk scans one chunk of the changed set into its per-chunk
// buffer, packing values into wire words on the way.
func (e *Engine[V]) collectChunk(clo, chi uint32, _ int) {
	cs := &e.collect
	idx := int(clo-cs.lo) / ws.ChunkSize
	ids, vals := cs.partIDs[idx][:0], cs.partVals[idx][:0]
	it := cs.src.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		ids = append(ids, graph.VertexID(i))
		vals = append(vals, e.dom.Bits(cs.values[i]))
	}
	cs.partIDs[idx], cs.partVals[idx] = ids, vals
}

// syncOwned distributes this worker's changed owned vertices and applies
// every received delta to values and the next frontier, picking the
// exchange strategy per superstep.
func (e *Engine[V]) syncOwned(st *state[V], changed *bitset.Atomic, frontier *bitset.Atomic, iter int, stat *metrics.IterStat) error {
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
	bytes0 := e.comm.T.Stats().BytesSent
	ids, vals := e.collectOwnedChanged(st, changed)
	sparse := false
	global := int64(-1)
	if e.sparseSync() {
		// The convergence-style changed-count AllReduce doubles as the
		// density estimate: every rank sees the same global count, so the
		// strategy choice below is identical cluster-wide.
		g, err := e.comm.AllReduceI64(int64(len(ids)), comm.OpSum)
		if err != nil {
			return err
		}
		global = g
		e.lastGlobalChanged = g
		switch e.cfg.Sync {
		case SyncSparse:
			sparse = true
		case SyncAdaptive:
			sparse = global*e.cfg.SparseDivisor < int64(e.g.NumVertices())
		}
	}
	var err error
	if sparse {
		err = e.syncSparse(st, frontier, iter, ids, vals, global)
		st.run.SparseSyncs++
		stat.SyncSparse = true
	} else {
		err = e.syncDense(st, frontier, iter, ids, vals)
		st.run.DenseSyncs++
	}
	if err != nil {
		return err
	}
	stat.SyncBytes += e.comm.T.Stats().BytesSent - bytes0
	return nil
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

// syncDense broadcasts the batch to every rank (the original AllGather
// path) with parallel segmented encoding into pooled wire buffers and a
// pre-created decode callback, so a steady-state dense sync allocates
// nothing beyond what the transport itself copies.
func (e *Engine[V]) syncDense(st *state[V], frontier *bitset.Atomic, iter int, ids []graph.VertexID, vals []uint64) error {
	blob := e.frameEncodePooled(ids, vals, st.picks())
	blobs, err := e.comm.AllGather(blob)
	if err != nil {
		return err
	}
	e.decFrontier, e.decIter = frontier, iter
	for rank, b := range blobs {
		e.decRank = rank
		if err := frameDecode(e.codec, b, e.denseDecode); err != nil {
			return err
		}
	}
	e.decFrontier = nil
	// A dense broadcast delivers the latest value of these vertices to
	// every rank, superseding any earlier sparse-only distribution.
	if e.dirty != nil {
		for _, id := range ids {
			e.dirty.Clear(int(id))
		}
	}
	return nil
}

// applyDenseDelta is the pre-created decode callback of syncDense.
func (e *Engine[V]) applyDenseDelta(id uint32, bits uint64) error {
	if int(id) >= e.g.NumVertices() {
		return fmt.Errorf("core: delta for out-of-range vertex %d", id)
	}
	if e.decRank != e.comm.Rank() {
		e.curState.values[id] = e.dom.FromBits(bits)
	}
	if e.decFrontier != nil {
		e.decFrontier.Set(int(id))
	}
	e.curState.markChanged(graph.VertexID(id), e.decIter)
	return nil
}

// syncSparse routes each changed vertex only to the ranks owning one of
// its out-neighbours — exactly the ranks that read its value (pull-mode
// relaxation, arith gathers) or count its frontier bit.
// Per-destination batches are encoded in parallel on the scheduler and
// exchanged point-to-point; the global changed count was already agreed by
// the caller's AllReduce, so termination and mode switches stay in
// lockstep even though no rank holds the full frontier.
func (e *Engine[V]) syncSparse(st *state[V], frontier *bitset.Atomic, iter int, ids []graph.VertexID, vals []uint64, global int64) error {
	for _, id := range ids {
		if frontier != nil {
			frontier.Set(int(id))
		}
		st.markChanged(id, iter)
		e.dirty.Set(int(id))
	}
	size := e.comm.Size()
	if global == 0 {
		return nil
	}
	me := e.comm.Rank()
	type batch struct {
		ids  []graph.VertexID
		vals []uint64
	}
	dests := make([]batch, size)
	serial := e.curs[len(e.curs)-1]
	for i, id := range ids {
		for _, u := range serial.OutNeighbors(id) {
			r := e.owner(u)
			if r == me {
				continue
			}
			b := &dests[r]
			if k := len(b.ids); k > 0 && b.ids[k-1] == id {
				continue // already routed to this rank
			}
			b.ids = append(b.ids, id)
			b.vals = append(b.vals, vals[i])
		}
	}
	blobs := make([][]byte, size)
	destPicks := make([]map[string]int64, size)
	e.sched.Tasks(size, func(r int) {
		if r == me || len(dests[r].ids) == 0 {
			return
		}
		blobs[r], destPicks[r] = frameEncode(nil, e.codec, dests[r].ids, dests[r].vals)
	})
	for _, p := range destPicks {
		st.foldPicks(p)
	}
	got, err := e.comm.SparseExchange(blobs)
	if err != nil {
		return err
	}
	n := e.g.NumVertices()
	for from, blob := range got {
		if from == me || blob == nil {
			continue
		}
		err := frameDecode(e.codec, blob, func(id uint32, bits uint64) error {
			if int(id) >= n {
				return fmt.Errorf("core: sparse delta for out-of-range vertex %d", id)
			}
			if graph.VertexID(id) >= e.lo && graph.VertexID(id) < e.hi {
				return fmt.Errorf("core: rank %d sent a delta for vertex %d owned here", from, id)
			}
			st.values[id] = e.dom.FromBits(bits)
			if frontier != nil {
				frontier.Set(int(id))
			}
			st.markChanged(graph.VertexID(id), iter)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// flushSparse restores the full-replication invariant the dense path keeps
// every superstep: each owned value whose latest update travelled only the
// sparse exchange is re-broadcast once at termination, so every worker
// returns identical results. With TrackLastChange the per-vertex
// last-change iterations are flushed the same way (as uint32 wire words,
// which fit either width). The flush is a collective, entered by all ranks
// whenever sparse sync is configured, even if no superstep actually went
// sparse.
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

// flushGather broadcasts one owned (id, wire-word) batch and applies every
// remote rank's batch through apply.
func (e *Engine[V]) flushGather(st *state[V], ids []graph.VertexID, vals []uint64, apply func(id uint32, bits uint64)) error {
	blob := e.frameEncodePooled(ids, vals, st.picks())
	blobs, err := e.comm.AllGather(blob)
	if err != nil {
		return err
	}
	n := e.g.NumVertices()
	for rank, b := range blobs {
		if rank == e.comm.Rank() {
			continue
		}
		err := frameDecode(e.codec, b, func(id uint32, bits uint64) error {
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
