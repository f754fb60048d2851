package core

import (
	"math"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// minmaxKernel is the frontier-driven comparison kernel with the "start
// late" rule of Algorithm 2 (single Ruler), plugged into the shared
// superstep driver. Every per-superstep working set (scratch values,
// per-thread counters, push buffers) is allocated once here or on the
// engine and reused; the compute/commit bodies are pre-created closures so
// dispatching a superstep performs no heap allocations.
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
	scratch []V

	// "Start late" state (Algorithm 2, single Ruler). lastIter is the
	// guidance array (nil with RR off) and maxLastIter its maximum, taken
	// here so soundness never hangs on a caller-filled field. A pull round
	// at ruler r suppresses exactly {v : lastIter[v] > r}, so what is still
	// owed a full pull is the scalar owedAbove: MaxInt64 before the first
	// pull round (nobody), r after a pull round at r, -1 after a checkpoint
	// restore (everybody). Every rank derives the same value without
	// communication.
	lastIter    []uint32
	maxLastIter uint32
	owedAbove   int64

	// Per-superstep mode decision, made in stepBegin and consumed by
	// compute/commit.
	pullMode bool
	ruler    int64 // current iteration, read by pullBody

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
		scratch:   make([]V, n),
		counters:  make([]threadCounters, e.sched.Threads()),
		owedAbove: math.MaxInt64,
	}
	if e.cfg.RR {
		k.lastIter = e.cfg.Guidance.LastIter
		for _, li := range k.lastIter {
			k.maxLastIter = max(k.maxLastIter, li)
		}
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

// restore rebuilds the frontier. Which vertices earlier pull rounds
// suppressed is not part of a shard: everything is treated as owed, and the
// first superstep after the resume is one closing pull at maxLastIter that
// re-collects every in-edge (a parent-written shard's "caughtup"/"debt"
// keys are ignored).
func (k *minmaxKernel[V]) restore(snap *ckpt.State) error {
	k.front.Reset()
	if k.lastIter != nil {
		k.owedAbove = -1
	}
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

func (k *minmaxKernel[V]) stepBegin(iter *int, stat *metrics.IterStat) (bool, error) {
	e := k.e
	// The global active count drives termination and the mode switch, so
	// every worker must agree on it. Under dense sync the local frontier IS
	// the global frontier; once sparse sync is possible each worker only
	// holds the bits it needs, but the frontier is exactly the previous
	// delta-sync's changed set, whose AllReduced count the engine cached.
	// Only a frontier not built by a sync (iteration 0's roots, a
	// checkpoint resume) needs a collective count.
	active := int64(k.front.Count())
	if e.sparseSync() && e.lastGlobalChanged >= 0 {
		active = e.lastGlobalChanged
	} else if e.sparseSync() {
		var err error
		active, err = e.comm.AllReduceI64(int64(k.front.CountRange(int(e.lo), int(e.hi))), comm.OpSum)
		if err != nil {
			return false, err
		}
	}

	// "Start late" debt: the latest pull round ran at ruler owedAbove and
	// skipped every vertex whose LastIter lies beyond it; each of them
	// relaxes all its in-edges at its first pull with ruler >= LastIter,
	// which repays whatever it missed. Push delivers only along the
	// frontier's out-edges and would lose those offers for good, so it is
	// entered only once a pull round has reached maxLastIter (Algorithm 3's
	// correctness rule, as one comparison instead of a reactivate-all).
	debt := k.owedAbove < int64(k.maxLastIter)
	if active == 0 && !debt {
		return true, nil // no active work and nothing owed: done
	}
	if debt && (active == 0 || k.owedAbove < 0) && int(k.maxLastIter) > *iter {
		// Nothing is in flight, or a resumed run cannot tell who is owed:
		// jump the Ruler to maxLastIter, so one closing pull starts every
		// vertex still waiting (moving the Ruler forward is always sound —
		// the guidance only ever delays a vertex).
		*iter = int(k.maxLastIter)
	}
	k.pullMode = debt
	if !debt {
		// The push/pull switch (Gemini's heuristic).
		outEdges, err := e.frontierOutEdgesGlobal(k.front)
		if err != nil {
			return false, err
		}
		k.pullMode = outEdges > e.g.NumEdges()/e.cfg.DenseDivisor
	}

	stat.Iter = *iter
	stat.ActiveVerts = active
	if k.pullMode {
		stat.Mode = metrics.Pull
	} else {
		stat.Mode = metrics.Push
	}
	clear(k.counters)
	return false, nil
}

// stagedCompute implements kernel: pull supersteps stage final values into
// scratch chunk-locally and may stream; push supersteps may not.
func (k *minmaxKernel[V]) stagedCompute() ([]V, bool) {
	if k.pullMode {
		return k.scratch, true
	}
	return nil, false
}

func (k *minmaxKernel[V]) compute(iter int, _ *metrics.IterStat) error {
	if !k.pullMode {
		k.computePush()
		return nil
	}
	k.ruler = int64(iter)
	wsStats := k.e.computeOwned(k.pullBody)
	k.st.run.Steals += wsStats.Steals
	if k.lastIter != nil {
		k.owedAbove = k.ruler
	}
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
// data-dependent branch per edge. The frontier only counts: Computations
// keeps Gemini's signal/slot accounting, one per in-edge whose source is
// active (the relaxations of §2.2), counted branch-free over the same list.
func (k *minmaxKernel[V]) computePullChunk(clo, chi uint32, th int) {
	p, st := k.p, k.st
	cur := k.e.curs[th]
	lastIter, ruler, owedAbove := k.lastIter, k.ruler, k.owedAbove
	var comps, suppressed, catchups int64
	changed := k.changed.Acc()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		owed := false
		if lastIter != nil {
			// Algorithm 2, pullEdge_singleRuler: an O(1) Ruler test delays
			// the vertex until iteration RRG[v].lastIter. Its first pull
			// after a round that suppressed it collects the inputs of all
			// in-edges (§3.2) and is charged as such: one catch-up.
			li := int64(lastIter[v])
			if ruler < li {
				suppressed++
				continue
			}
			owed = li > owedAbove
		}
		ins := cur.InNeighbors(vid)
		if owed {
			catchups++
			comps += int64(len(ins))
		} else {
			comps += k.front.CountIn(ins)
		}
		best := k.relaxSpan(st.values[vid], st.values, ins, p.inWeights(cur, vid))
		if p.Better(best, st.values[vid]) {
			k.scratch[v] = best
			changed.Set(int(v))
		}
	}
	changed.Flush() // before returning: the overlapped pipeline reads the bits at chunk completion
	c := &k.counters[th]
	c.comps += comps
	c.suppressed += suppressed
	c.catchups += catchups
}

// computePush is source-side push with sender-side combining: proposals
// are appended into engine-owned per-thread per-rank buffers (push.go).
func (k *minmaxKernel[V]) computePush() {
	e := k.e
	e.pushInit(k.p)
	wsStats := e.sched.Run(uint32(e.lo), uint32(e.hi), k.pushBody)
	k.st.run.Steals += wsStats.Steals
}

// computePushChunk relaxes one chunk's frontier vertices into the flat
// per-rank append buffers. Ownership lookups are amortised with a cursor
// over the rank ranges: adjacency lists are ascending, so the owner changes
// at most once per rank per source vertex.
func (k *minmaxKernel[V]) computePushChunk(clo, chi uint32, th int) {
	e, p, st := k.e, k.p, k.st
	bufs := e.push.bufs[th]
	comps := int64(0)
	weighted := !p.Unweighted
	it := k.front.IterIn(int(clo), int(chi))
	for v := it.Next(); v >= 0; v = it.Next() {
		vid := graph.VertexID(v)
		srcVal := st.values[vid]
		outs := e.curs[th].OutNeighbors(vid)
		var ows []float32
		if weighted {
			ows = e.curs[th].OutWeights(vid)
		}
		curR := -1
		var curLo, curHi graph.VertexID
		for i, u := range outs {
			w := float32(1)
			if weighted {
				w = ows[i]
			}
			cand := k.relax(vid, srcVal, w)
			comps++
			if curR < 0 || u < curLo || u >= curHi {
				curR = e.part.Owner(u)
				curLo, curHi = e.part.Range(curR)
			}
			b := &bufs[curR]
			// Parallel edges land adjacently in the ascending list:
			// combine in place instead of appending a duplicate.
			if n := len(b.ids); n > 0 && b.ids[n-1] == u {
				if p.Better(cand, b.vals[n-1]) {
					b.vals[n-1] = cand
				}
			} else {
				b.ids = append(b.ids, u)
				b.vals = append(b.vals, cand)
			}
		}
	}
	k.counters[th].comps += comps
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
	} else if err := e.exchangePushFlat(&k.counters[0].updates); err != nil {
		return err
	}
	foldCounters(k.counters, stat)
	return nil
}

func (k *minmaxKernel[V]) stepEnd(int, *metrics.IterStat) (bool, error) {
	return false, nil // termination is decided in stepBegin
}

func (k *minmaxKernel[V]) finish(*Result[V]) {}
