package core

import (
	"errors"
	"runtime"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/metrics"
)

// kernel is one aggregation mode's plug-in into the shared superstep
// driver. The driver owns everything both loops used to duplicate —
// checkpoint load/save, delta-sync, metrics plumbing
// and the iteration loop itself — while the kernel supplies the
// mode-specific compute: frontier-driven relaxation with a push/pull
// switch (minmaxKernel) or all-vertex gather/apply with "finish early"
// detection (arithKernel).
type kernel[V comparable] interface {
	// kind tags checkpoint shards; a shard from one kernel must not
	// resume the other.
	kind() ckpt.Kind
	// superstepCap bounds the driver loop (a safety net, not the normal
	// termination path).
	superstepCap() int
	// restore applies kernel-specific state from a checkpoint shard; the
	// driver has already restored the value array.
	restore(snap *ckpt.State) error
	// snapshot adds kernel-specific state of the owned range [e.lo, e.hi)
	// to an outgoing shard and returns the typed array its StableVal
	// section is encoded from (nil: none). The shard is encoded before the
	// next superstep, so it may alias the kernel's arrays.
	snapshot(snap *ckpt.State) (stableVal []V)
	// frontier returns the bitset the sync phase repopulates with the
	// next frontier, or nil for kernels that activate every vertex.
	frontier() *bitset.Atomic
	// stepBegin runs pre-compute coordination: termination checks and
	// push/pull mode selection. done ends the run before any compute.
	stepBegin(iter int, stat *metrics.IterStat) (done bool)
	// stagedCompute reports whether this superstep's compute is pull-style
	// — every owned vertex's new value is staged chunk-locally into the
	// returned scratch array — so the overlapped pipeline may stream
	// deltas while compute runs. Push supersteps return (nil, false): an
	// owned vertex's value is only known once commit has folded every
	// thread's proposals.
	// Valid after stepBegin (which fixes the superstep's mode).
	stagedCompute() ([]V, bool)
	// compute stages this superstep's proposals in parallel; it must not
	// mutate the value array (BSP purity). A pull-style body stages each
	// owned vertex's final value, marks it changed and may update the
	// vertex's own kernel state (the arith stability streak) in the same
	// pass; it dispatches through Engine.computeOwned so it joins the
	// overlap phase when the superstep streams.
	compute(iter int, stat *metrics.IterStat) error
	// commit applies staged values to the owned range (a push superstep
	// also marks its changed vertices here) and folds per-thread counters
	// into stat.
	commit(iter int, stat *metrics.IterStat) error
	// stepEnd runs post-sync global coordination (e.g. convergence
	// reductions). done ends the run after the checkpoint tick.
	stepEnd(iter int, stat *metrics.IterStat) (done bool, err error)
	// finish fills kernel-specific result fields.
	finish(res *Result[V])
}

// threadCounters is one thread's share of a superstep's work counts. Chunk
// bodies tally into locals and fold them in once per chunk; the padding to
// a full cache line keeps one thread's fold from invalidating its
// neighbour's line.
type threadCounters struct {
	comps, updates, suppressed int64
	frozen                     int64   // arith: vertices early-converged after this superstep
	maxDelta                   float64 // arith: largest |Δ| the thread staged
	_                          [24]byte
}

// foldCounters adds every thread's counts to stat.
func foldCounters(cs []threadCounters, stat *metrics.IterStat) {
	for i := range cs {
		stat.Computations += cs[i].comps
		stat.Updates += cs[i].updates
		stat.Suppressed += cs[i].suppressed
	}
}

// runSupersteps is the unified superstep pipeline: one iteration loop
// serving both aggregation modes. Each superstep runs
//
//	stepBegin -> compute -> commit -> delta-sync -> stepEnd
//	          -> checkpoint tick
//
// with per-phase timings recorded in the run metrics. Every return, errors
// included, first drains the checkpoint writer, so the shards a returned
// run wrote are durable; a failed save fails the run.
func (e *Engine[V]) runSupersteps(p *Program[V], k kernel[V], st *state[V], changed *bitset.Atomic) (res *Result[V], err error) {
	iter := 0
	// The run's state and changed set are pinned on the engine so the
	// pre-created hot-path closures (stream drain and decode, push fold)
	// reach them without per-superstep captures.
	e.curState, e.changed = st, changed
	defer func() {
		e.curState, e.changed, e.stream.active, e.stream.ex = nil, nil, false, nil
		if werr := e.drainCkpt(); werr != nil {
			res, err = nil, errors.Join(err, werr)
		}
	}()
	// A merged state holds every vertex's owner-authoritative state, so the
	// run resumes under Part whatever ranges wrote the shards.
	if snap := e.cfg.Restore; snap != nil {
		if err := e.validateSnap(snap, p, k.kind()); err != nil {
			return nil, err
		}
		e.decodeValues(st.values, snap.Values)
		if err := k.restore(snap); err != nil {
			return nil, err
		}
		iter = int(snap.Iter) + 1
	}

	// Per-superstep heap-allocation deltas (the alloc-budget guards'
	// instrument). The window covers stepBegin through the checkpoint tick;
	// only the metrics append falls outside it.
	var mem runtime.MemStats
	var prevMallocs, prevBytes uint64
	if e.cfg.MeasureAllocs {
		runtime.ReadMemStats(&mem)
		prevMallocs, prevBytes = mem.Mallocs, mem.TotalAlloc
	}

	for tick := 0; tick < k.superstepCap(); tick++ {
		var stat metrics.IterStat
		beginStart := time.Now()
		done := k.stepBegin(iter, &stat)
		st.run.FrontierTime += time.Since(beginStart)
		if done {
			break
		}

		changed.Reset()
		computeStart := time.Now()
		if e.overlapSync() {
			if staged, ok := k.stagedCompute(); ok {
				e.streamBegin(staged, true)
			}
		}
		if err := k.compute(iter, &stat); err != nil {
			return nil, err
		}
		if e.stream.active {
			if err := e.streamFlush(); err != nil {
				return nil, err
			}
		}
		commitStart := time.Now()
		if err := k.commit(iter, &stat); err != nil {
			return nil, err
		}
		now := time.Now()
		st.run.CommitTime += now.Sub(commitStart)
		stat.Time = now.Sub(computeStart)

		syncStart := time.Now()
		f := k.frontier()
		if f != nil {
			f.Reset()
		}
		if err := e.deltaSync(st, changed, f, iter, &stat); err != nil {
			return nil, err
		}
		syncDur := time.Since(syncStart)
		st.run.SyncTime += syncDur
		stat.ExposedComm = syncDur

		done, err := k.stepEnd(iter, &stat)
		if err != nil {
			return nil, err
		}

		if e.cfg.Ckpt != nil && e.cfg.Ckpt.ShouldSave(iter) {
			ckptStart := time.Now()
			if err := e.checkpoint(p, k, st, iter); err != nil {
				return nil, err
			}
			st.run.CkptTime += time.Since(ckptStart)
		}
		if e.cfg.MeasureAllocs {
			runtime.ReadMemStats(&mem)
			stat.HeapAllocs = int64(mem.Mallocs - prevMallocs)
			stat.HeapBytes = int64(mem.TotalAlloc - prevBytes)
		}
		st.run.Add(stat)
		if done {
			break
		}
		if e.cfg.MeasureAllocs {
			runtime.ReadMemStats(&mem)
			prevMallocs, prevBytes = mem.Mallocs, mem.TotalAlloc
		}
		iter++
	}

	res = &Result[V]{
		Values:     st.values,
		Dom:        e.dom,
		Iterations: len(st.run.Iters),
		Metrics:    st.run,
		LastChange: st.lastChange,
	}
	k.finish(res)
	return res, nil
}
