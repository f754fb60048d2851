package core

import (
	"errors"
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
	relaxSpan func(best V, vals []V, ins []graph.VertexID, ws []float32, active *bitset.Atomic) (V, int64)

	front   *bitset.Atomic
	changed *bitset.Atomic
	// caughtUp marks owned vertices that performed their full catch-up
	// scan; debt marks owned vertices suppressed at least once and not yet
	// caught up.
	caughtUp *bitset.Atomic
	debt     *bitset.Atomic
	scratch  []V

	// Per-superstep mode decision, made in stepBegin and consumed by
	// compute/commit.
	pullMode   bool
	globalDebt int64
	ruler      uint32 // current iteration, read by pullBody

	counters []threadCounters

	// Pre-created phase bodies (no per-superstep closures).
	pullBody   func(clo, chi uint32, thread int)
	pushBody   func(clo, chi uint32, thread int)
	commitBody func(clo, chi uint32, thread int)

	// Reused checkpoint-shard listings (valid until the next tick).
	snapFrontier, snapCaught, snapDebt []uint32
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
	}
	if e.cfg.RR {
		k.caughtUp = bitset.NewAtomic(n)
		k.debt = bitset.NewAtomic(n)
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

func (k *minmaxKernel[V]) restore(snap *ckpt.State) error {
	k.front.Reset()
	if err := restoreBits(k.front, snap.Sets["frontier"]); err != nil {
		return err
	}
	if k.e.cfg.RR {
		if err := restoreBits(k.caughtUp, snap.Sets["caughtup"]); err != nil {
			return err
		}
		if err := restoreBits(k.debt, snap.Sets["debt"]); err != nil {
			return err
		}
	}
	return nil
}

func (k *minmaxKernel[V]) snapshot(snap *ckpt.State) {
	k.snapFrontier = k.e.collectBitsInto(k.snapFrontier[:0], k.front)
	snap.Sets = map[string][]uint32{"frontier": k.snapFrontier}
	if k.e.cfg.RR {
		k.snapCaught = k.e.collectBitsInto(k.snapCaught[:0], k.caughtUp)
		k.snapDebt = k.e.collectBitsInto(k.snapDebt[:0], k.debt)
		snap.Sets["caughtup"] = k.snapCaught
		snap.Sets["debt"] = k.snapDebt
	}
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

	// globalDebt counts vertices that were suppressed while an update was
	// available and have not caught up yet.
	var globalDebt int64
	if e.cfg.RR {
		localDebt := int64(k.debt.CountRange(int(e.lo), int(e.hi)))
		var err error
		globalDebt, err = e.comm.AllReduceI64(localDebt, comm.OpSum)
		if err != nil {
			return false, err
		}
	}

	if active == 0 && globalDebt == 0 {
		return true, nil // no active work and no debt anywhere: done
	}
	if active == 0 {
		// "Start late" still owes catch-up scans but no updates are in
		// flight: advance the Ruler straight to the earliest pending
		// LastIter so the schedule continues without idle rounds.
		pending := int64(math.MaxInt64)
		for v := e.lo; v < e.hi; v++ {
			if k.debt.Get(int(v)) {
				if li := int64(e.cfg.Guidance.LastIter[v]); li < pending {
					pending = li
				}
			}
		}
		global, err := e.comm.AllReduceI64(pending, comm.OpMin)
		if err != nil {
			return false, err
		}
		if int(global) > *iter {
			*iter = int(global)
		}
	}

	// The push/pull switch (Gemini's heuristic), with one refinement:
	// while "start late" debt is outstanding the engine stays in pull
	// mode, where catch-up scans repay the debt progressively as the
	// Ruler passes each vertex's LastIter. This realises Algorithm 3's
	// correctness rule (updates suppressed in pull must be re-delivered
	// before push) without its reactivate-all |E|-relaxation spike —
	// under per-edge activity accounting the extra pull rounds cost
	// only bitmap bookkeeping, whereas each reactivation re-relaxes
	// every edge and, with suppression re-accruing debt, can ping-pong.
	outEdges, err := e.frontierOutEdgesGlobal(k.front)
	if err != nil {
		return false, err
	}
	k.pullMode = active == 0 || globalDebt > 0 ||
		outEdges > e.g.NumEdges()/e.cfg.DenseDivisor
	k.globalDebt = globalDebt

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
	if k.pullMode {
		k.ruler = uint32(iter)
		wsStats := k.e.computeOwned(k.pullBody)
		k.st.run.Steals += wsStats.Steals
		return nil
	}
	// Push is only entered with zero outstanding debt (see the mode
	// switch above), so Algorithm 3's reactivate-all re-delivery is
	// never needed; the assertion documents the invariant.
	if k.e.cfg.RR && k.globalDebt != 0 {
		return errors.New("core: internal: push entered with outstanding catch-up debt")
	}
	k.computePush()
	return nil
}

// computePullChunk stages improvements in scratch (BSP-pure, race-free) for
// one chunk of the owned range; commit applies them.
func (k *minmaxKernel[V]) computePullChunk(clo, chi uint32, th int) {
	e, p, st := k.e, k.p, k.st
	cur := e.curs[th]
	ruler := k.ruler
	var comps, suppressed, catchups int64
	changed := k.changed.Acc()
	for v := clo; v < chi; v++ {
		vid := graph.VertexID(v)
		// Baseline dense pull, Gemini's signal/slot accounting: relax
		// exactly the in-edges whose source is active this round (the
		// per-edge activity test is cheap bitmap bookkeeping; the
		// relaxations are the heavyweight computations of §2.2). The total
		// is therefore one relaxation per (update, out-edge) event
		// regardless of scheduling, and "start late" reduces it by
		// suppressing a vertex's events outright — all but the one
		// catch-up scan below, which alone pays the full in-degree.
		active := k.front
		if e.cfg.RR && !k.caughtUp.Get(int(v)) {
			// Algorithm 2, pullEdge_singleRuler: an O(1) Ruler test delays
			// the vertex until iteration RRG[v].lastIter. The saving is the
			// relaxations the baseline would perform. Debt — the obligation
			// to re-collect all inputs later — is only incurred when an
			// update was actually available (an active in-neighbour
			// existed) while suppressed; the activity probe is bitmap
			// bookkeeping, not a §2.2 computation.
			if ruler < e.cfg.Guidance.LastIter[v] {
				suppressed++
				if !k.debt.Get(int(v)) && hasActiveIn(k.front, cur.InNeighbors(vid)) {
					k.debt.Set(int(v))
				}
				continue
			}
			k.caughtUp.Set(int(v))
			if k.debt.Get(int(v)) {
				// First eligible pull after suppression: pullFunc over
				// every in-edge regardless of source activity (§3.2:
				// "requires vx to collect the inputs from all of them"),
				// which repays the updates suppression skipped.
				active = nil
				catchups++
				k.debt.Clear(int(v))
			}
		}
		best, relaxed := k.relaxSpan(st.values[vid], st.values, cur.InNeighbors(vid), cur.InWeights(vid), active)
		comps += relaxed
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
	it := k.front.IterIn(int(clo), int(chi))
	for v := it.Next(); v >= 0; v = it.Next() {
		vid := graph.VertexID(v)
		srcVal := st.values[vid]
		outs, ows := e.curs[th].OutNeighbors(vid), e.curs[th].OutWeights(vid)
		curR := -1
		var curLo, curHi graph.VertexID
		for i, u := range outs {
			cand := k.relax(vid, srcVal, ows[i])
			comps++
			if curR < 0 || u < curLo || u >= curHi {
				curR = e.owner(u)
				curLo, curHi = e.rankRange(curR)
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

// onAcquire conservatively marks a rebalance-acquired vertex as debt: it
// may carry unknown "start late" suppression history from its previous
// owner, and the catch-up scan re-pulls every in-edge, repairing any
// update that owner suppressed.
func (k *minmaxKernel[V]) onAcquire(v graph.VertexID) {
	if k.e.cfg.RR && !k.caughtUp.Get(int(v)) {
		k.debt.Set(int(v))
	}
}

func (k *minmaxKernel[V]) finish(*Result[V]) {}
