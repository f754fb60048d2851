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

// ecFrozen reports whether v's stability streak has outlived its guidance:
// v is early-converged once the streak strictly exceeds its LastIter (§2.2:
// "x > its maximum/latest propagation level"). Algorithm 5's pseudo-code
// tests stableCnt < lastIter, but the strict prose version is required for
// correctness — an update can arrive exactly one round after lastIter when
// contributions cancel transiently, e.g. opposing evidence in
// BeliefPropagation.
func (k *arithKernel[V]) ecFrozen(v graph.VertexID) bool {
	return k.stableCnt[v] > k.e.cfg.Guidance.LastIter[v]
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

func (k *arithKernel[V]) stepBegin(iter *int, stat *metrics.IterStat) (bool, error) {
	if *iter >= k.maxIters {
		return true, nil
	}
	stat.Iter = *iter
	stat.Mode = metrics.Pull
	stat.ActiveVerts = int64(k.e.g.NumVertices())
	clear(k.counters)
	return false, nil
}

// stagedCompute implements kernel: the gather/apply compute always stages
// into scratch chunk-locally, so every arith superstep may stream.
func (k *arithKernel[V]) stagedCompute() ([]V, bool) { return k.scratch, true }

func (k *arithKernel[V]) compute(_ int, _ *metrics.IterStat) error {
	wsStats := k.e.computeOwned(k.gatherBody)
	k.st.run.Steals += wsStats.Steals
	return nil
}

// computeChunk gathers and applies one chunk of the owned range into
// scratch (BSP-pure).
func (k *arithKernel[V]) computeChunk(clo, chi uint32, th int) {
	e, p, st := k.e, k.p, k.st
	cur := e.curs[th]
	var comps, suppressed int64
	changed := k.changed.Acc()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		// Algorithm 5 line 15: compute only while the stability
		// streak has not outgrown the vertex's LastIter; afterwards
		// the vertex is early-converged and its cached value is
		// reused ("finish early"). The strict test also guarantees
		// every vertex computes at least once before freezing
		// (vertices with no reachable in-neighbours have LastIter 0).
		if e.cfg.RR && k.ecFrozen(vid) {
			suppressed++
			continue
		}
		ins := cur.InNeighbors(vid)
		comps += int64(len(ins))
		acc := k.gather(p.GatherInit, st.values, ins, p.inWeights(cur, vid))
		k.scratch[v] = p.Apply(e.g, vid, acc, st.values[vid])
		// Mark the change at compute time (the same |Δ| > 0 test commit
		// applies), so the overlapped pipeline can emit this chunk's deltas
		// before the commit barrier; the bits are published one word at a
		// time, the last before this body returns.
		if e.dom.Delta(st.values[v], k.scratch[v]) > 0 {
			changed.Set(int(v))
		}
	}
	changed.Flush()
	c := &k.counters[th]
	c.comps += comps
	c.suppressed += suppressed
}

// commitChunk is vertexUpdate (Algorithm 5 lines 13-18) for one chunk of
// the owned range: stability bookkeeping and committing new values.
func (k *arithKernel[V]) commitChunk(clo, chi uint32, th int) {
	e, p, st := k.e, k.p, k.st
	var maxDelta float64
	var frozen int64 // early-converged vertices of the chunk after this commit
	for v := clo; v < chi; v++ {
		if e.cfg.RR && k.ecFrozen(graph.VertexID(v)) {
			frozen++
			continue
		}
		newVal := k.scratch[v]
		if p.stable(e.dom, newVal, k.stableVal[v]) {
			k.stableCnt[v]++
			// Only a lengthened streak can freeze a vertex (a reset one is
			// at 0, never above LastIter).
			if e.cfg.RR && k.ecFrozen(graph.VertexID(v)) {
				frozen++
			}
		} else {
			k.stableCnt[v] = 0
			k.stableVal[v] = newVal
		}
		if d := e.dom.Delta(st.values[v], newVal); d > 0 {
			if d > maxDelta {
				maxDelta = d
			}
			st.values[v] = newVal
		}
	}
	c := &k.counters[th]
	c.frozen += frozen
	c.maxDelta = max(c.maxDelta, maxDelta)
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
