package core

import (
	"errors"
	"fmt"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// Config configures one worker's engine. Every worker of a cluster must use
// an identical configuration apart from Comm (which carries the rank).
// Config itself is domain-agnostic: the property type is fixed by the
// Engine's type parameter and the Program's Domain.
type Config struct {
	Graph graph.View
	Comm  *comm.Comm         // communication group (required)
	Part  *partition.Chunked // vertex ownership (required)

	// RR enables redundancy reduction; Guidance must then be set.
	RR       bool
	Guidance *rrg.Guidance

	// Sched is the scheduler pool the worker computes on (required; its
	// thread count and §3.6 work stealing are the pool's). The caller owns
	// it: a session passes one persistent pool per rank, so successive runs
	// reuse the parked workers instead of spawning a fresh pool.
	Sched *ws.Scheduler

	// DenseDivisor sets the push/pull switch: pull when the frontier's
	// outgoing edges exceed |E|/DenseDivisor (default 20, Gemini's
	// heuristic).
	DenseDivisor int64

	// TrackLastChange records the last iteration each vertex's value
	// changed (used by the Figure 2 early-convergence analysis).
	TrackLastChange bool

	// Codec serialises delta-sync messages (nil:
	// compress.Raw at the domain's width; compress.Adaptive shapes each
	// batch's layout to it). The codec's width must match the
	// program domain's width — Run validates. All workers must agree.
	Codec compress.Codec

	// Ckpt enables Pregel-style superstep checkpointing: every
	// Ckpt.Interval() supersteps each worker writes a shard of the vertex
	// range it owns, tagged with Part's ranges (fixed for the run). The
	// shard is encoded on the superstep path and written and fsynced in
	// the background, so a tick is durable once the next tick starts or
	// Run returns. The engine only writes through Ckpt; resuming is
	// Restore's job (Ckpt.Resume is read by the caller).
	Ckpt *ckpt.Manager

	// Restore is the engine's only seed: the merged checkpoint state the
	// run restarts from (nil: cold start). The cluster layer builds it
	// once per run (ckpt.Manager.MergeLatest) and every worker only reads
	// it. Validated against the program, loop kind, domain and graph; a
	// merged state carries no ranges, so it resumes under any ownership.
	Restore *ckpt.State

	// MeasureAllocs records per-superstep heap allocation deltas
	// (runtime.ReadMemStats) into the iteration metrics. The counters are
	// process-global, so the numbers are only attributable when a single
	// worker runs in the process (Nodes=1, as apps.TestSteadyStateAllocBudget
	// runs it); with in-process clusters they measure the whole cluster.
	MeasureAllocs bool
}

// Result is returned by Run on every worker; Values are synchronised, so
// all workers return identical values.
type Result[V comparable] struct {
	Values     []V
	Dom        Domain[V] // the domain the program ran over
	Iterations int
	Metrics    *metrics.Run
	// LastChange[v] is the last iteration v's value changed (-1 if never);
	// populated when Config.TrackLastChange is set.
	LastChange []int32
	// ECCount is the number of early-converged vertices at termination
	// (arith programs with RR).
	ECCount int64
}

// Float64s projects the result values through the domain (identity for
// F64) for analytics, sampling and reference comparison.
func (r *Result[V]) Float64s() []float64 { return r.Dom.Float64s(r.Values) }

// Engine executes Programs over property type V on one worker.
type Engine[V comparable] struct {
	cfg  Config
	g    graph.View
	comm *comm.Comm
	// curs[t] is thread t's adjacency cursor (free aliases for a heap
	// graph, per-thread block-decode scratch for a disk-backed one).
	curs  []graph.Cursor
	sched *ws.Scheduler
	// lo/hi cache this rank's range of Config.Part, fixed for the
	// engine's lifetime.
	lo, hi graph.VertexID

	// dom and codec are resolved per Run from the program's domain (the
	// codec width must match the domain width; an engine reused across
	// runs keeps one codec).
	dom   Domain[V]
	codec compress.Codec

	// Steady-state working sets, allocated once and reused every superstep
	// (the zero-allocation hot path). curState/changed point at the active
	// run's state so the pre-created closures below need no per-superstep
	// captures.
	curState *state[V]
	changed  *bitset.Atomic
	pushBufs []pairBuf[V]   // per-thread push proposals (kernel_minmax.go)
	bits     bitsCollect    // checkpoint bit-listing buffers
	stream   streamState[V] // delta-sync streaming state (overlap.go)
	ck       ckptTick       // checkpoint tick state (checkpoint.go)

	// The frontier out-degree scan's chunk body and input (frontierOutEdges).
	outBody      func(clo, chi uint32, thread int) int64
	statFrontier *bitset.Atomic

	// Per-exchange context of the pre-created stream decode callback
	// (overlap.go).
	decFrontier *bitset.Atomic
	decIter     int
}

// bitsCollect is the reusable working set of collectBitsInto (checkpoint
// shards): one append buffer per mini-chunk, written in parallel and
// concatenated in chunk order.
type bitsCollect struct {
	src   *bitset.Atomic
	lo    uint32 // start of the scanned range; chunk i begins at lo+i*ChunkSize
	parts [][]uint32
	body  func(clo, chi uint32, thread int)
}

// New validates the configuration and builds a worker engine over property
// type V (e.g. New[float64] for the original engine, New[float32] for the
// paper-faithful half-width domain).
func New[V comparable](cfg Config) (*Engine[V], error) {
	if cfg.Graph == nil {
		return nil, errors.New("core: Config.Graph is required")
	}
	if cfg.Comm == nil {
		return nil, errors.New("core: Config.Comm is required")
	}
	if cfg.Part == nil {
		return nil, errors.New("core: Config.Part is required")
	}
	if cfg.Part.Nodes() != cfg.Comm.Size() {
		return nil, fmt.Errorf("core: partition has %d nodes but comm size is %d", cfg.Part.Nodes(), cfg.Comm.Size())
	}
	if cfg.Sched == nil {
		return nil, errors.New("core: Config.Sched is required (build one with ws.New and close it after the run)")
	}
	if cfg.RR && cfg.Guidance == nil {
		return nil, errors.New("core: RR requires Guidance")
	}
	if cfg.RR && len(cfg.Guidance.LastIter) != cfg.Graph.NumVertices() {
		return nil, errors.New("core: guidance size does not match graph")
	}
	if cfg.DenseDivisor <= 0 {
		cfg.DenseDivisor = 20
	}
	e := &Engine[V]{
		cfg:   cfg,
		g:     cfg.Graph,
		comm:  cfg.Comm,
		sched: cfg.Sched,
	}
	e.curs = make([]graph.Cursor, e.sched.Threads())
	for i := range e.curs {
		e.curs[i] = e.g.Cursor()
	}
	e.pushBufs = make([]pairBuf[V], e.sched.Threads())
	e.bits.body = e.collectBitsChunk
	e.outBody = e.outEdgesChunk
	e.lo, e.hi = cfg.Part.Range(cfg.Comm.Rank())
	return e, nil
}

// bindDomain resolves the run's domain and codec and validates that their
// wire widths agree. Called by Run after Program.Validate filled the
// domain in.
func (e *Engine[V]) bindDomain(dom Domain[V]) error {
	if e.dom.Name != "" && e.dom.Name != dom.Name {
		return fmt.Errorf("core: engine already bound to domain %s, program uses %s", e.dom.Name, dom.Name)
	}
	e.dom = dom
	if e.codec == nil {
		if e.cfg.Codec != nil {
			e.codec = e.cfg.Codec
		} else {
			e.codec = compress.Raw{W: dom.Width}
		}
		e.streamInit()
	}
	if e.codec.Width() != dom.Width {
		return fmt.Errorf("core: codec %s has wire width %d but domain %s needs %d (build the codec with a matching W field)",
			e.codec.Name(), e.codec.Width(), dom.Name, dom.Width)
	}
	return nil
}

// Run executes the program to convergence and returns the synchronised
// result. Both aggregation modes run through the unified superstep
// pipeline (superstep.go); only the kernel differs.
func (e *Engine[V]) Run(p *Program[V]) (*Result[V], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dom, err := p.domain()
	if err != nil {
		return nil, err
	}
	if err := e.bindDomain(dom); err != nil {
		return nil, err
	}
	start := time.Now()
	st := e.newState(p)
	changed := bitset.NewAtomic(e.g.NumVertices())
	var k kernel[V]
	if p.Agg == MinMax {
		k = newMinMaxKernel(e, p, st, changed)
	} else {
		k = newArithKernel(e, p, st, changed)
	}
	res, err := e.runSupersteps(p, k, st, changed)
	if err != nil {
		return nil, err
	}
	res.Metrics.Total = time.Since(start)
	return res, nil
}

// state is the per-run mutable state shared by both loops.
type state[V comparable] struct {
	values     []V
	lastChange []int32
	run        *metrics.Run
}

func (e *Engine[V]) newState(p *Program[V]) *state[V] {
	n := e.g.NumVertices()
	st := &state[V]{
		values: make([]V, n),
		run:    &metrics.Run{},
	}
	for v := 0; v < n; v++ {
		st.values[v] = p.InitValue(e.g, graph.VertexID(v))
	}
	if e.cfg.TrackLastChange {
		st.lastChange = make([]int32, n)
		for i := range st.lastChange {
			st.lastChange[i] = -1
		}
	}
	return st
}

// markChanged records a value change for Figure 2 tracking.
func (st *state[V]) markChanged(v graph.VertexID, iter int) {
	if st.lastChange != nil {
		st.lastChange[v] = int32(iter)
	}
}

// frontierOutEdges sums the frontier's out-degrees in total (the push/pull
// switch statistic, the same on every worker: the frontier is global) and
// over the owned range. Each scan is a ReduceI64 over a pre-created chunk
// body, so it allocates nothing (the scheduler owns the accumulators).
func (e *Engine[V]) frontierOutEdges(frontier *bitset.Atomic) (total, owned int64) {
	e.statFrontier = frontier
	owned, _ = e.sched.ReduceI64(uint32(e.lo), uint32(e.hi), e.outBody)
	below, _ := e.sched.ReduceI64(0, uint32(e.lo), e.outBody)
	above, _ := e.sched.ReduceI64(uint32(e.hi), uint32(frontier.Len()), e.outBody)
	e.statFrontier = nil
	return below + owned + above, owned
}

// outEdgesChunk sums one chunk's frontier out-degrees.
func (e *Engine[V]) outEdgesChunk(clo, chi uint32, _ int) int64 {
	it := e.statFrontier.IterIn(int(clo), int(chi))
	var s int64
	for i := it.Next(); i >= 0; i = it.Next() {
		s += e.g.OutDegree(graph.VertexID(i))
	}
	return s
}

// collectBitsInto appends the set indices of b inside [lo, hi) to dst in
// ascending order. Chunks are scanned in parallel into engine-owned
// per-chunk buffers (reused across calls) and concatenated in chunk order,
// preserving the ascending order serial Range produced. Callers own dst;
// the checkpoint path hands in a retained slice re-sliced to zero length
// each tick.
func (e *Engine[V]) collectBitsInto(dst []uint32, b *bitset.Atomic, lo, hi graph.VertexID) []uint32 {
	if hi <= lo {
		return dst
	}
	nParts := (int(hi-lo) + ws.ChunkSize - 1) / ws.ChunkSize
	bs := &e.bits
	for len(bs.parts) < nParts {
		bs.parts = append(bs.parts, nil)
	}
	bs.src, bs.lo = b, uint32(lo)
	e.sched.Run(uint32(lo), uint32(hi), bs.body)
	bs.src = nil
	for i := 0; i < nParts; i++ {
		dst = append(dst, bs.parts[i]...)
	}
	return dst
}

// collectBitsChunk scans one chunk of the source bitset into its per-chunk
// buffer.
func (e *Engine[V]) collectBitsChunk(clo, chi uint32, _ int) {
	bs := &e.bits
	idx := int(clo-bs.lo) / ws.ChunkSize
	ids := bs.parts[idx][:0]
	it := bs.src.IterIn(int(clo), int(chi))
	for i := it.Next(); i >= 0; i = it.Next() {
		ids = append(ids, uint32(i))
	}
	bs.parts[idx] = ids
}

// restoreBits sets the listed indices in b (which must be large enough).
func restoreBits(b *bitset.Atomic, ids []uint32) error {
	for _, id := range ids {
		if int(id) >= b.Len() {
			return fmt.Errorf("core: checkpoint bit %d outside graph of %d vertices", id, b.Len())
		}
		b.Set(int(id))
	}
	return nil
}
