package core

import (
	"slices"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// minmaxKernel is the frontier-driven comparison kernel, plugged into the
// shared superstep driver. Every superstep takes the push/pull switch's own
// choice; the paper's "start late" Ruler is not applied (it never paid on
// this engine, see CHANGES.md), so RR and guidance leave a min/max run
// untouched. Every per-superstep working set (scratch values, per-thread
// counters, push buffers) is allocated once — here, on the engine, or on
// the first superstep that needs it — and reused; the compute/commit
// bodies are pre-created closures so dispatching a steady superstep
// performs no heap allocations.
type minmaxKernel[V comparable] struct {
	e  *Engine[V]
	p  *Program[V]
	st *state[V]

	// relax is the program's resolved per-edge relaxation hook (push) and
	// relaxSpan its resolved per-vertex one (pull).
	relax     func(src graph.VertexID, srcVal V, w float32) V
	relaxSpan func(best V, vals []V, ins []graph.VertexID, ws []float32) V

	front   *bitset.Atomic
	changed *bitset.Atomic
	scratch []V // pull staging, allocated on the first pull superstep

	// pullMode is the superstep's mode, decided in stepBegin and consumed
	// by compute/commit.
	pullMode bool

	counters []threadCounters

	// Pre-created phase bodies (no per-superstep closures).
	pullBody   func(clo, chi uint32, thread int)
	pushBody   func(clo, chi uint32, thread int)
	commitBody func(clo, chi uint32, thread int)

	// Reused checkpoint-shard listings (valid until the next tick).
	snapFrontier []uint32
}

func newMinMaxKernel[V comparable](e *Engine[V], p *Program[V], st *state[V], changed *bitset.Atomic) *minmaxKernel[V] {
	n := e.g.NumVertices()
	k := &minmaxKernel[V]{
		e: e, p: p, st: st,
		relax:     p.relax(),
		relaxSpan: p.relaxSpan(),
		front:     bitset.NewAtomic(n),
		changed:   changed,
		counters:  make([]threadCounters, e.sched.Threads()),
	}
	for _, r := range p.Roots {
		if int(r) < n {
			k.front.Set(int(r))
			st.markChanged(r, 0)
		}
	}
	k.pullBody = k.computePullChunk
	k.pushBody = k.computePushChunk
	k.commitBody = k.commitPullChunk
	return k
}

func (k *minmaxKernel[V]) kind() ckpt.Kind          { return ckpt.MinMax }
func (k *minmaxKernel[V]) superstepCap() int        { return 4*k.e.g.NumVertices() + 16 }
func (k *minmaxKernel[V]) frontier() *bitset.Atomic { return k.front }

// restore rebuilds the frontier, the only kernel state a shard carries (a
// shard written by an older build may also list "caughtup" and "debt"
// sets; they are ignored).
func (k *minmaxKernel[V]) restore(snap *ckpt.State) error {
	k.front.Reset()
	return restoreBits(k.front, snap.Sets["frontier"])
}

// snapshot lists the owned part of the next frontier: every owner holds
// its own changed bits, so the owners' lists together are the whole
// frontier (ckpt.Merge unions them).
func (k *minmaxKernel[V]) snapshot(snap *ckpt.State) []V {
	k.snapFrontier = k.e.collectBitsInto(k.snapFrontier[:0], k.front, k.e.lo, k.e.hi)
	snap.Sets["frontier"] = k.snapFrontier
	return nil
}

func (k *minmaxKernel[V]) stepBegin(iter int, stat *metrics.IterStat) bool {
	e := k.e
	// The global active count drives termination and the mode switch, so
	// every worker must agree on it: delta-sync gives every worker the
	// whole frontier, so each counts it locally.
	active := int64(k.front.Count())
	if active == 0 {
		return true // no active work: done
	}
	total, owned := e.frontierOutEdges(k.front)
	// The push/pull switch (Gemini's heuristic).
	k.pullMode = total > e.g.NumEdges()/e.cfg.DenseDivisor
	// Every vertex computes, so in either mode Σ_v |in(v) ∩ F| =
	// Σ_{u∈F} OutDegree(u): each rank counts the frontier vertices it owns.
	clear(k.counters)
	k.counters[0].comps = owned
	if k.pullMode && k.scratch == nil {
		// A run that only pushes (a warm wave from a few sources) never
		// stages a value, so it never pays for the array.
		k.scratch = make([]V, e.g.NumVertices())
	}

	stat.Iter = iter
	stat.ActiveVerts = active
	stat.Mode = metrics.Push
	if k.pullMode {
		stat.Mode = metrics.Pull
	}
	return false
}

// stagedCompute implements kernel: pull supersteps stage final values into
// scratch chunk-locally and may stream; push supersteps may not.
func (k *minmaxKernel[V]) stagedCompute() ([]V, bool) {
	if k.pullMode {
		return k.scratch, true
	}
	return nil, false
}

func (k *minmaxKernel[V]) compute(int, *metrics.IterStat) error {
	if !k.pullMode {
		// Every rank holds the whole frontier: each relaxes it into the
		// destinations it owns, and commit folds the proposals.
		for t := range k.e.pushBufs {
			b := &k.e.pushBufs[t]
			b.ids, b.vals = b.ids[:0], b.vals[:0]
		}
		k.st.run.Steals += k.e.sched.Run(0, uint32(k.e.g.NumVertices()), k.pushBody).Steals
		return nil
	}
	k.st.run.Steals += k.e.computeOwned(k.pullBody).Steals
	return nil
}

// computePullChunk stages improvements in scratch (BSP-pure, race-free) for
// one chunk of the owned range; commit applies them.
//
// A computing vertex relaxes every in-edge, whatever its source did last
// round. That is sound for min/max: the aggregation is idempotent and
// values only improve, so a source that did not change has nothing to
// offer beyond what the destination already folded in — the result is bit
// for bit the one a frontier-filtered scan produces, without a
// data-dependent branch per edge. Computations keeps Gemini's signal/slot
// accounting, one per in-edge whose source is active (the relaxations of
// §2.2), which stepBegin counts from the frontier's out-degrees, so this
// loop walks each in-list once.
func (k *minmaxKernel[V]) computePullChunk(clo, chi uint32, th int) {
	p, st := k.p, k.st
	cur := k.e.curs[th]
	changed := k.changed.Acc()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		best := k.relaxSpan(st.values[vid], st.values, cur.InNeighbors(vid), p.inWeights(cur, vid))
		if p.Better(best, st.values[vid]) {
			k.scratch[v] = best
			changed.Set(int(v))
		}
	}
	changed.Flush() // before returning: the overlapped pipeline reads the bits at chunk completion
}

// pairBuf is one thread's append buffer of push proposals. Length resets
// every push superstep; capacity is retained. Adjacent threads' buffers
// share a cache line: a chunk appends to locals, stored back once.
type pairBuf[V comparable] struct {
	ids  []graph.VertexID
	vals []V
}

// computePushChunk relaxes one chunk of the global frontier along the
// out-edges whose destinations this rank owns, into the thread's append
// buffer. Out-lists are ascending (graph.Cursor), so the owned edges are one
// slice that two binary searches find, skipped when the whole list is owned
// (always, on one rank).
func (k *minmaxKernel[V]) computePushChunk(clo, chi uint32, th int) {
	e, p, st := k.e, k.p, k.st
	cur, b := e.curs[th], &e.pushBufs[th]
	ids, vals := b.ids, b.vals
	lo, hi := e.lo, e.hi
	weighted := !p.Unweighted
	it := k.front.IterIn(int(clo), int(chi))
	for v := it.Next(); v >= 0; v = it.Next() {
		vid := graph.VertexID(v)
		outs := cur.OutNeighbors(vid)
		i, j := 0, len(outs)
		if j > 0 && (outs[0] < lo || outs[j-1] >= hi) {
			i, _ = slices.BinarySearch(outs, lo)
			j, _ = slices.BinarySearch(outs, hi)
			if i >= j {
				continue
			}
		}
		var ows []float32
		if weighted {
			ows = cur.OutWeights(vid)
		}
		srcVal := st.values[vid]
		for x := i; x < j; x++ {
			u, w := outs[x], float32(1)
			if weighted {
				w = ows[x]
			}
			cand := k.relax(vid, srcVal, w)
			// Parallel edges land adjacently in the ascending list:
			// combine in place instead of appending a duplicate.
			if n := len(ids); n > 0 && ids[n-1] == u {
				if p.Better(cand, vals[n-1]) {
					vals[n-1] = cand
				}
			} else {
				ids = append(ids, u)
				vals = append(vals, cand)
			}
		}
	}
	b.ids, b.vals = ids, vals
}

// foldPush applies every thread's push proposals to the owned values and
// returns the updates. Min/max folding is order-insensitive under Better's
// total order, so folding the buffers in turn leaves each vertex at the
// best of its proposals; the changed bit counts one update per improved
// vertex.
func (k *minmaxKernel[V]) foldPush() int64 {
	p, values := k.p, k.st.values
	var updates int64
	for t := range k.e.pushBufs {
		b := &k.e.pushBufs[t]
		for i, id := range b.ids {
			if p.Better(b.vals[i], values[id]) {
				values[id] = b.vals[i]
				if k.changed.TestAndSet(int(id)) {
					updates++
				}
			}
		}
	}
	return updates
}

// commitPullChunk applies one chunk's staged improvements to the owned
// range; each committed value change is one "update" (the Table 2 metric).
func (k *minmaxKernel[V]) commitPullChunk(clo, chi uint32, th int) {
	var updates int64
	it := k.changed.IterIn(int(clo), int(chi))
	for v := it.Next(); v >= 0; v = it.Next() {
		k.st.values[v] = k.scratch[v]
		updates++
	}
	k.counters[th].updates += updates
}

func (k *minmaxKernel[V]) commit(_ int, stat *metrics.IterStat) error {
	e := k.e
	if k.pullMode {
		e.sched.Run(uint32(e.lo), uint32(e.hi), k.commitBody)
	} else {
		k.counters[0].updates += k.foldPush()
	}
	foldCounters(k.counters, stat)
	return nil
}

func (k *minmaxKernel[V]) stepEnd(int, *metrics.IterStat) (bool, error) {
	return false, nil // termination is decided in stepBegin
}

func (k *minmaxKernel[V]) finish(*Result[V]) {}
