package core

import (
	"fmt"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// arithKernel is the all-vertex pull kernel for arithmetic aggregations
// with the "finish early" rule of Algorithm 5 (multi Ruler: the per-vertex
// stability counter), plugged into the shared superstep driver.
type arithKernel[V comparable] struct {
	e  *Engine[V]
	p  *Program[V]
	st *state[V]

	changed *bitset.Atomic
	// RulerS of Algorithm 2 / stableCnt of Algorithm 5.
	stableCnt []uint32
	stableVal []V
	scratch   []V
	maxIters  int

	// gather is the program's resolved per-vertex gather hook.
	gather   func(acc V, vals []V, ins []graph.VertexID, ws []float32) V
	counters []threadCounters
	ecCount  int64

	// Pre-created phase bodies, so dispatching a superstep allocates
	// nothing.
	gatherBody func(clo, chi uint32, thread int)
	commitBody func(clo, chi uint32, thread int)
}

func newArithKernel[V comparable](e *Engine[V], p *Program[V], st *state[V], changed *bitset.Atomic) *arithKernel[V] {
	n := e.g.NumVertices()
	k := &arithKernel[V]{
		e: e, p: p, st: st,
		changed:   changed,
		stableCnt: make([]uint32, n),
		stableVal: make([]V, n),
		scratch:   make([]V, n),
		maxIters:  p.maxItersOrDefault(),
		gather:    p.gatherSpan(),
		counters:  make([]threadCounters, e.sched.Threads()),
	}
	copy(k.stableVal, st.values)
	k.gatherBody = k.computeChunk
	k.commitBody = k.commitChunk
	return k
}

func (k *arithKernel[V]) kind() ckpt.Kind          { return ckpt.Arith }
func (k *arithKernel[V]) superstepCap() int        { return k.maxIters + 1 }
func (k *arithKernel[V]) frontier() *bitset.Atomic { return nil }

func (k *arithKernel[V]) restore(snap *ckpt.State) error {
	n := k.e.g.NumVertices()
	if len(snap.StableCnt) != n || len(snap.StableVal) != n {
		return fmt.Errorf("core: checkpoint stability arrays sized %d/%d for %d vertices",
			len(snap.StableCnt), len(snap.StableVal), n)
	}
	copy(k.stableCnt, snap.StableCnt)
	k.e.decodeValues(k.stableVal, snap.StableVal)
	return nil
}

func (k *arithKernel[V]) snapshot(snap *ckpt.State) []V {
	lo, hi := k.e.lo, k.e.hi
	snap.StableCnt = k.stableCnt[lo:hi]
	return k.stableVal[lo:hi]
}

func (k *arithKernel[V]) stepBegin(iter int, stat *metrics.IterStat) bool {
	if iter >= k.maxIters {
		return true
	}
	stat.Iter = iter
	stat.Mode = metrics.Pull
	stat.ActiveVerts = int64(k.e.g.NumVertices())
	clear(k.counters)
	return false
}

// stagedCompute implements kernel: the gather/apply compute always stages
// into scratch chunk-locally, so every arith superstep may stream.
func (k *arithKernel[V]) stagedCompute() ([]V, bool) { return k.scratch, true }

func (k *arithKernel[V]) compute(_ int, _ *metrics.IterStat) error {
	k.st.run.Steals += k.e.computeOwned(k.gatherBody).Steals
	return nil
}

// computeChunk is vertexUpdate (Algorithm 5 lines 13-18) for one chunk of
// the owned range: gather and apply, the stability streak, and staging in
// scratch the exact value commit publishes. It writes only the chunk's own
// entries of scratch, stableCnt, stableVal and changed, so it stays
// BSP-pure: the value array is untouched until commit.
func (k *arithKernel[V]) computeChunk(clo, chi uint32, th int) {
	e, p := k.e, k.p
	cur := e.curs[th]
	values, scratch := k.st.values, k.scratch
	stableCnt, stableVal := k.stableCnt, k.stableVal
	rr, delta := e.cfg.RR, e.dom.Delta
	var lastIter []uint32
	if rr {
		lastIter = e.cfg.Guidance.LastIter
	}
	var comps, suppressed, frozen int64
	var maxDelta float64
	changed := k.changed.Acc()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		old := values[v]
		// Algorithm 5 line 15: compute only while the stability streak
		// has not outgrown the vertex's LastIter. The strict test is
		// §2.2's prose ("x > its maximum/latest propagation level"), not
		// the pseudo-code's stableCnt < lastIter: an update can arrive one
		// round after lastIter when contributions cancel transiently, e.g.
		// opposing evidence in BeliefPropagation. Past it the vertex is
		// early-converged and keeps its value ("finish early"); vertices
		// with no reachable in-neighbours (LastIter 0) still compute once.
		if rr && stableCnt[v] > lastIter[v] {
			suppressed++
			frozen++
			scratch[v] = old
			continue
		}
		ins := cur.InNeighbors(vid)
		comps += int64(len(ins))
		acc := k.gather(p.GatherInit, values, ins, p.inWeights(cur, vid))
		newVal := p.Apply(e.g, vid, acc, old)
		if p.stable(e.dom, newVal, stableVal[v]) {
			stableCnt[v]++
			// Only a lengthened streak can freeze a vertex (a reset one is
			// at 0, never above LastIter).
			if rr && stableCnt[v] > lastIter[v] {
				frozen++
			}
		} else {
			stableCnt[v] = 0
			stableVal[v] = newVal
		}
		// Stage what commit will publish: the new value only on a real
		// change, so a |Δ| = 0 result (−0 against +0, NaN) keeps the old
		// bits. Marking the change here lets the overlapped pipeline emit
		// this chunk's deltas before the commit barrier; the bits are
		// published one word at a time, the last before this body returns.
		if d := delta(old, newVal); d > 0 {
			if d > maxDelta {
				maxDelta = d
			}
			scratch[v] = newVal
			changed.Set(int(v))
		} else {
			scratch[v] = old
		}
	}
	changed.Flush()
	c := &k.counters[th]
	c.comps += comps
	c.suppressed += suppressed
	c.frozen += frozen
	c.maxDelta = max(c.maxDelta, maxDelta)
}

// commitChunk publishes one chunk of the staged owned range.
func (k *arithKernel[V]) commitChunk(clo, chi uint32, _ int) {
	copy(k.st.values[clo:chi], k.scratch[clo:chi])
}

// commit runs commitChunk over the owned range on the scheduler and folds
// the superstep's per-thread counts.
func (k *arithKernel[V]) commit(_ int, stat *metrics.IterStat) error {
	e := k.e
	e.sched.Run(uint32(e.lo), uint32(e.hi), k.commitBody)
	foldCounters(k.counters, stat)
	stat.Updates = int64(k.changed.CountRange(int(e.lo), int(e.hi)))
	return nil
}

func (k *arithKernel[V]) stepEnd(_ int, stat *metrics.IterStat) (bool, error) {
	e, p := k.e, k.p
	// Global termination checks.
	var maxLocalDelta float64
	var localEC int64
	for t := range k.counters {
		maxLocalDelta = max(maxLocalDelta, k.counters[t].maxDelta)
		localEC += k.counters[t].frozen
	}
	maxDelta, err := e.comm.AllReduceF64(maxLocalDelta, comm.OpMax)
	if err != nil {
		return false, err
	}
	k.ecCount, err = e.comm.AllReduceI64(localEC, comm.OpSum)
	if err != nil {
		return false, err
	}
	stat.ECGlobal = k.ecCount
	if p.Epsilon > 0 && maxDelta <= p.Epsilon {
		return true, nil
	}
	if e.cfg.RR && k.ecCount == int64(e.g.NumVertices()) {
		return true, nil
	}
	return false, nil
}

func (k *arithKernel[V]) finish(res *Result[V]) { res.ECCount = k.ecCount }
