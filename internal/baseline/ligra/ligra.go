// Package ligra implements a shared-memory frontier-based engine in the
// style of Ligra (PPoPP'13), the paper's in-memory single-machine
// comparison point (Figure 6). It provides Ligra's EdgeMap with automatic
// sparse (push) / dense (pull) direction selection, and an Execute adapter
// running core.Program specifications on top of it.
package ligra

import (
	"math"
	"sync/atomic"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/ws"
)

// Frontier is a vertex subset.
type Frontier struct {
	bits *bitset.Atomic
	n    int
}

// NewFrontier returns an empty frontier over n vertices.
func NewFrontier(n int) *Frontier {
	return &Frontier{bits: bitset.NewAtomic(n), n: n}
}

// Add inserts v.
func (f *Frontier) Add(v graph.VertexID) { f.bits.Set(int(v)) }

// Has reports membership.
func (f *Frontier) Has(v graph.VertexID) bool { return f.bits.Get(int(v)) }

// Size returns |frontier|.
func (f *Frontier) Size() int { return f.bits.Count() }

// Empty reports whether the frontier is empty.
func (f *Frontier) Empty() bool { return !f.bits.Any() }

// Engine evaluates EdgeMap over one graph.
type Engine struct {
	g     *graph.Graph
	sched *ws.Scheduler
	// DenseDivisor mirrors Ligra's |E|/20 direction threshold.
	DenseDivisor int64
	// Comps counts edge relaxations (for experiment reporting).
	Comps int64
}

// New builds an engine with the given thread count (<=0: GOMAXPROCS).
func New(g *graph.Graph, threads int) *Engine {
	return &Engine{g: g, sched: ws.New(threads, true), DenseDivisor: 20}
}

// Close releases the engine's persistent scheduler pool.
func (e *Engine) Close() { e.sched.Close() }

// EdgeMapFuncs are the update (push) and condition hooks of Ligra's
// edgeMap. Update must be safe for concurrent invocation on distinct dst.
type EdgeMapFuncs struct {
	// TryUpdate attempts src->dst relaxation and reports whether dst
	// changed (push side, may race: use atomic values or idempotent ops).
	TryUpdate func(src, dst graph.VertexID, w float32) bool
	// Cond filters destinations (Ligra's C function); nil means always.
	Cond func(dst graph.VertexID) bool
}

// EdgeMap applies fns over edges out of the frontier, choosing sparse
// (source-driven) or dense (destination-driven) traversal, and returns the
// next frontier.
func (e *Engine) EdgeMap(f *Frontier, fns EdgeMapFuncs) *Frontier {
	n := e.g.NumVertices()
	next := NewFrontier(n)
	var outEdges int64
	f.bits.Range(func(i int) bool {
		outEdges += e.g.OutDegree(graph.VertexID(i))
		return true
	})
	var comps int64
	if outEdges > e.g.NumEdges()/e.DenseDivisor {
		// Dense: scan destinations, pulling from active sources.
		perThread := make([]int64, e.sched.Threads())
		e.sched.Run(0, uint32(n), func(lo, hi uint32, th int) {
			for v := lo; v < hi; v++ {
				vid := graph.VertexID(v)
				if fns.Cond != nil && !fns.Cond(vid) {
					continue
				}
				ins, ws := e.g.InNeighbors(vid), e.g.InWeights(vid)
				for i, u := range ins {
					if !f.Has(u) {
						continue
					}
					perThread[th]++
					if fns.TryUpdate(u, vid, ws[i]) {
						next.Add(vid)
					}
				}
			}
		})
		for _, c := range perThread {
			comps += c
		}
	} else {
		// Sparse: scan frontier sources, pushing along out-edges.
		perThread := make([]int64, e.sched.Threads())
		e.sched.Run(0, uint32(n), func(lo, hi uint32, th int) {
			for v := lo; v < hi; v++ {
				if !f.Has(graph.VertexID(v)) {
					continue
				}
				vid := graph.VertexID(v)
				outs, ws := e.g.OutNeighbors(vid), e.g.OutWeights(vid)
				for i, u := range outs {
					if fns.Cond != nil && !fns.Cond(u) {
						continue
					}
					perThread[th]++
					if fns.TryUpdate(vid, u, ws[i]) {
						next.Add(u)
					}
				}
			}
		})
		for _, c := range perThread {
			comps += c
		}
	}
	e.Comps += comps
	return next
}

// Result mirrors core.Result for the Ligra engine.
type Result struct {
	Values     []core.Value
	Iterations int
	Metrics    *metrics.Run
}

// Execute runs a core.Program on the Ligra engine. MinMax programs use
// frontier iteration with a mutex-free monotone update; arith programs run
// dense rounds for MaxIters.
func Execute(g *graph.Graph, p *core.Program[float64], threads int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	e := New(g, threads)
	defer e.Close()
	n := g.NumVertices()
	values := make([]core.Value, n)
	for v := 0; v < n; v++ {
		values[v] = p.InitValue(g, graph.VertexID(v))
	}
	run := &metrics.Run{}
	iters := 0

	if p.Agg == core.MinMax {
		frontier := NewFrontier(n)
		for _, r := range p.Roots {
			if int(r) < n {
				frontier.Add(r)
			}
		}
		// Ligra's writeMin/writeMax: a CAS loop over the value's bit
		// pattern makes concurrent relaxations of the same destination
		// linearisable.
		shared := make([]atomic.Uint64, n)
		for v := 0; v < n; v++ {
			shared[v].Store(math.Float64bits(values[v]))
		}
		fns := EdgeMapFuncs{
			TryUpdate: func(src, dst graph.VertexID, w float32) bool {
				cand := p.Relax(math.Float64frombits(shared[src].Load()), w)
				for {
					oldBits := shared[dst].Load()
					if !p.Better(cand, math.Float64frombits(oldBits)) {
						return false
					}
					if shared[dst].CompareAndSwap(oldBits, math.Float64bits(cand)) {
						return true
					}
				}
			},
		}
		for !frontier.Empty() && iters < 10*n+16 {
			stat := metrics.IterStat{Iter: iters, Mode: metrics.Push, ActiveVerts: int64(frontier.Size())}
			before := e.Comps
			t0 := time.Now()
			frontier = e.EdgeMap(frontier, fns)
			stat.Computations = e.Comps - before
			stat.Updates = int64(frontier.Size())
			stat.Time = time.Since(t0)
			run.Add(stat)
			iters++
		}
		for v := 0; v < n; v++ {
			values[v] = math.Float64frombits(shared[v].Load())
		}
	} else {
		maxIters := p.MaxIters
		if maxIters <= 0 {
			maxIters = 100
		}
		acc := make([]core.Value, n)
		for ; iters < maxIters; iters++ {
			stat := metrics.IterStat{Iter: iters, Mode: metrics.Pull, ActiveVerts: int64(n)}
			t0 := time.Now()
			for v := range acc {
				acc[v] = p.GatherInit
			}
			perThread := make([]int64, e.sched.Threads())
			e.sched.Run(0, uint32(n), func(lo, hi uint32, th int) {
				for v := lo; v < hi; v++ {
					vid := graph.VertexID(v)
					ins, ws := g.InNeighbors(vid), g.InWeights(vid)
					a := p.GatherInit
					for i, u := range ins {
						perThread[th]++
						a = p.Gather(a, values[u], ws[i])
					}
					acc[v] = a
				}
			})
			for _, c := range perThread {
				stat.Computations += c
			}
			for v := 0; v < n; v++ {
				nv := p.Apply(g, graph.VertexID(v), acc[v], values[v])
				if nv != values[v] {
					stat.Updates++
				}
				values[v] = nv
			}
			e.Comps += stat.Computations
			stat.Time = time.Since(t0)
			run.Add(stat)
		}
	}
	run.Total = time.Since(start)
	return &Result{Values: values, Iterations: iters, Metrics: run}, nil
}
