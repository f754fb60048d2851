// Package apps implements the graph applications evaluated by the paper
// (§4.1: SSSP, ConnectedComponents, WidestPath from the min/max class;
// PageRank, TunkRank from the arithmetic class) plus the remaining Table 1
// applications that the engine supports (BFS, NumPaths, SpMV,
// HeatSimulation, ApproximateDiameter), and sequential reference
// implementations used to verify every one of them.
//
// Every program is generic over its value domain where the arithmetic
// allows it: the *In constructors build a program for any float property
// type (F64 keeps the original behaviour and serves as the differential
// oracle; F32 is the paper-faithful half-width domain of §2.2), the plain
// constructors are the float64 instantiations, the *F32 wrappers the
// float32 ones, and the label-style applications additionally ship exact
// U32 integer variants. SSSPTree demonstrates a composite domain: distance
// plus predecessor in one wire word, yielding an actual shortest-path
// tree.
package apps

import (
	"math"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/graph"
)

// Inf is the "unreached" distance.
var Inf = math.Inf(1)

// SSSPIn is single-source shortest path (Algorithm 4 of the paper) over
// any float domain: min() aggregation over dist[src]+w.
func SSSPIn[V core.Float](root graph.VertexID) *core.Program[V] {
	return &core.Program[V]{
		Name: "SSSP",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) V {
			if v == root {
				return 0
			}
			return V(Inf)
		},
		Roots:     []graph.VertexID{root},
		Relax:     func(src V, w float32) V { return src + V(w) },
		Better:    func(a, b V) bool { return a < b },
		RelaxSpan: minPlusSpan[V],
	}
}

// SSSP is the float64 instantiation of SSSPIn.
func SSSP(root graph.VertexID) *core.Program[float64] { return SSSPIn[float64](root) }

// SSSPF32 is the paper-faithful float32 instantiation of SSSPIn.
func SSSPF32(root graph.VertexID) *core.Program[float32] { return SSSPIn[float32](root) }

// BFSIn is breadth-first level assignment: SSSP with unit edge weights.
func BFSIn[V core.Float](root graph.VertexID) *core.Program[V] {
	p := SSSPIn[V](root)
	p.Name = "BFS"
	p.Relax = func(src V, _ float32) V { return src + 1 }
	p.RelaxSpan = minHopSpan[V]
	p.Unweighted = true
	return p
}

// BFS is the float64 instantiation of BFSIn.
func BFS(root graph.VertexID) *core.Program[float64] { return BFSIn[float64](root) }

// BFSF32 is the float32 instantiation of BFSIn.
func BFSF32(root graph.VertexID) *core.Program[float32] { return BFSIn[float32](root) }

// BFSU32 assigns BFS levels as exact uint32 integers (core.U32Unreached is
// the "not reached" sentinel). The relaxation saturates so a pull, which
// relaxes every in-edge including those of unreached in-neighbours, cannot
// wrap the sentinel around to a winning level.
func BFSU32(root graph.VertexID) *core.Program[uint32] {
	return &core.Program[uint32]{
		Name: "BFS",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) uint32 {
			if v == root {
				return 0
			}
			return core.U32Unreached
		},
		Roots: []graph.VertexID{root},
		Relax: func(src uint32, _ float32) uint32 {
			if src >= core.U32Unreached-1 {
				return core.U32Unreached
			}
			return src + 1
		},
		Better:     func(a, b uint32) bool { return a < b },
		RelaxSpan:  minHopU32Span,
		Unweighted: true,
	}
}

// CCIn is connected components by min-label propagation over any float
// domain. It must run on a symmetrised graph (use Symmetrize) so labels
// flow against edge directions, yielding weakly connected components.
// Float labels are exact only below 2^24 vertices (the float32 integer
// range); CCU32 is the exact variant at any scale.
func CCIn[V core.Float](g graph.View) *core.Program[V] {
	n := g.NumVertices()
	roots := make([]graph.VertexID, n)
	for v := range roots {
		roots[v] = graph.VertexID(v)
	}
	return &core.Program[V]{
		Name: "CC",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) V {
			return V(v)
		},
		Roots:      roots,
		Relax:      func(src V, _ float32) V { return src },
		Better:     func(a, b V) bool { return a < b },
		RelaxSpan:  minLabelSpan[V],
		Unweighted: true,
	}
}

// CC is the float64 instantiation of CCIn.
func CC(g graph.View) *core.Program[float64] { return CCIn[float64](g) }

// CCF32 is the float32 instantiation of CCIn (labels exact below 2^24
// vertices).
func CCF32(g graph.View) *core.Program[float32] { return CCIn[float32](g) }

// CCU32 propagates exact uint32 component labels — the natural integer
// domain for CC: no rounding at any graph scale and varint-friendly wire
// words.
func CCU32(g graph.View) *core.Program[uint32] {
	n := g.NumVertices()
	roots := make([]graph.VertexID, n)
	for v := range roots {
		roots[v] = graph.VertexID(v)
	}
	return &core.Program[uint32]{
		Name: "CC",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) uint32 {
			return uint32(v)
		},
		Roots:      roots,
		Relax:      func(src uint32, _ float32) uint32 { return src },
		Better:     func(a, b uint32) bool { return a < b },
		RelaxSpan:  minLabelSpan[uint32],
		Unweighted: true,
	}
}

// WPIn is widest path (maximum bottleneck capacity) from root: max()
// aggregation over min(width[src], w).
func WPIn[V core.Float](root graph.VertexID) *core.Program[V] {
	return &core.Program[V]{
		Name: "WP",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) V {
			if v == root {
				return V(Inf)
			}
			return 0
		},
		Roots: []graph.VertexID{root},
		Relax: func(src V, w float32) V {
			if mw := V(w); mw < src {
				return mw
			}
			return src
		},
		Better:    func(a, b V) bool { return a > b },
		RelaxSpan: maxMinSpan[V],
	}
}

// WP is the float64 instantiation of WPIn.
func WP(root graph.VertexID) *core.Program[float64] { return WPIn[float64](root) }

// WPF32 is the float32 instantiation of WPIn. Edge weights are float32
// already, so the bottleneck arithmetic is exact in both domains.
func WPF32(root graph.VertexID) *core.Program[float32] { return WPIn[float32](root) }

// isF64 reports whether the program's property type is float64 (the only
// domain whose arith programs need a StableEps tolerance; see
// Program.StableEps).
func isF64[V core.Float]() bool {
	var zero V
	_, ok := any(zero).(float64)
	return ok
}

// stableEpsFor returns the Algorithm 5 stability tolerance for the domain:
// 0 (exact equality, §2.2's hardware-precision rule) everywhere except
// float64, whose 52-bit mantissa keeps twitching in the last ulps long
// after the ranks are stable.
func stableEpsFor[V core.Float]() float64 {
	if isF64[V]() {
		return 1e-7
	}
	return 0
}

// PageRankIn follows Algorithm 5: rank = 0.15 + 0.85*sum(contributions);
// the stored property is the *contribution* rank/outdeg (rank itself for
// dangling vertices). Use PageRankScoresIn to recover ranks. Over float32
// the stability test is exact equality — the paper-faithful §2.2 rule —
// because float32 rounding saturates once ranks stop moving.
func PageRankIn[V core.Float](iters int) *core.Program[V] {
	return &core.Program[V]{
		Name: "PR",
		Agg:  core.Arith,
		InitValue: func(g graph.View, v graph.VertexID) V {
			if d := g.OutDegree(v); d > 0 {
				return 1.0 / V(d)
			}
			return 1.0
		},
		GatherInit: 0,
		Gather: func(acc V, src V, _ float32) V {
			return acc + src
		},
		GatherSpan: core.SumSpan[V],
		Unweighted: true,
		Apply: func(g graph.View, v graph.VertexID, acc, _ V) V {
			rank := V(0.15) + V(0.85)*acc
			if d := g.OutDegree(v); d > 0 {
				return rank / V(d)
			}
			return rank
		},
		MaxIters:  iters,
		StableEps: stableEpsFor[V](),
	}
}

// PageRank is the float64 instantiation of PageRankIn.
func PageRank(iters int) *core.Program[float64] { return PageRankIn[float64](iters) }

// PageRankF32 is the float32 instantiation of PageRankIn.
func PageRankF32(iters int) *core.Program[float32] { return PageRankIn[float32](iters) }

// PageRankScoresIn converts stored contributions back to ranks.
func PageRankScoresIn[V core.Float](g graph.View, contribs []V) []V {
	ranks := make([]V, len(contribs))
	for v := range contribs {
		if d := g.OutDegree(graph.VertexID(v)); d > 0 {
			ranks[v] = contribs[v] * V(d)
		} else {
			ranks[v] = contribs[v]
		}
	}
	return ranks
}

// PageRankScores is the float64 instantiation of PageRankScoresIn.
func PageRankScores(g graph.View, contribs []float64) []float64 {
	return PageRankScoresIn(g, contribs)
}

// TunkRankP is the retweet probability of TunkRank.
const TunkRankP = 0.5

// TunkRankIn estimates Twitter-style influence: I(v) = sum over followers
// u of (1 + p*I(u))/following(u). Followers are modelled as in-neighbours.
// The stored property is the contribution (1+p*I(v))/outdeg(v); use
// TunkRankScoresIn to recover influence.
func TunkRankIn[V core.Float](iters int) *core.Program[V] {
	return &core.Program[V]{
		Name: "TR",
		Agg:  core.Arith,
		InitValue: func(g graph.View, v graph.VertexID) V {
			if d := g.OutDegree(v); d > 0 {
				return 1.0 / V(d)
			}
			return 1.0
		},
		GatherInit: 0,
		Gather: func(acc V, src V, _ float32) V {
			return acc + src
		},
		GatherSpan: core.SumSpan[V],
		Unweighted: true,
		Apply: func(g graph.View, v graph.VertexID, acc, _ V) V {
			contrib := 1 + V(TunkRankP)*acc
			if d := g.OutDegree(v); d > 0 {
				return contrib / V(d)
			}
			return contrib
		},
		MaxIters:  iters,
		StableEps: stableEpsFor[V](),
	}
}

// TunkRank is the float64 instantiation of TunkRankIn.
func TunkRank(iters int) *core.Program[float64] { return TunkRankIn[float64](iters) }

// TunkRankF32 is the float32 instantiation of TunkRankIn.
func TunkRankF32(iters int) *core.Program[float32] { return TunkRankIn[float32](iters) }

// TunkRankScoresIn recovers influence values from stored contributions:
// the influence of v is the gather over its in-edges.
func TunkRankScoresIn[V core.Float](g graph.View, contribs []V) []V {
	infl := make([]V, len(contribs))
	for v := range infl {
		var acc V
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			acc += contribs[u]
		}
		infl[v] = acc
	}
	return infl
}

// TunkRankScores is the float64 instantiation of TunkRankScoresIn.
func TunkRankScores(g graph.View, contribs []float64) []float64 {
	return TunkRankScoresIn(g, contribs)
}

// NumPathsIn counts distinct paths from root (meaningful on DAGs; bounded
// by iters elsewhere). Counts originate at root, so it is the program's Roots.
func NumPathsIn[V core.Float](root graph.VertexID, iters int) *core.Program[V] {
	return &core.Program[V]{
		Name: "NumPaths",
		Agg:  core.Arith,
		InitValue: func(_ graph.View, v graph.VertexID) V {
			if v == root {
				return 1
			}
			return 0
		},
		Roots:      []graph.VertexID{root},
		GatherInit: 0,
		Gather: func(acc V, src V, _ float32) V {
			return acc + src
		},
		GatherSpan: core.SumSpan[V],
		Unweighted: true,
		Apply: func(_ graph.View, v graph.VertexID, acc, _ V) V {
			if v == root {
				return 1
			}
			return acc
		},
		MaxIters: iters,
	}
}

// NumPaths is the float64 instantiation of NumPathsIn.
func NumPaths(root graph.VertexID, iters int) *core.Program[float64] {
	return NumPathsIn[float64](root, iters)
}

// NumPathsF32 is the float32 instantiation of NumPathsIn.
func NumPathsF32(root graph.VertexID, iters int) *core.Program[float32] {
	return NumPathsIn[float32](root, iters)
}

// NumPathsU32 counts paths as exact uint32 integers — no float rounding on
// large counts (counts above 2^32-1 wrap modulo 2^32; floats would lose
// precision silently at 2^24/2^53 instead).
func NumPathsU32(root graph.VertexID, iters int) *core.Program[uint32] {
	return &core.Program[uint32]{
		Name: "NumPaths",
		Agg:  core.Arith,
		InitValue: func(_ graph.View, v graph.VertexID) uint32 {
			if v == root {
				return 1
			}
			return 0
		},
		Roots:      []graph.VertexID{root},
		GatherInit: 0,
		Gather: func(acc uint32, src uint32, _ float32) uint32 {
			return acc + src
		},
		GatherSpan: core.SumSpan[uint32],
		Unweighted: true,
		Apply: func(_ graph.View, v graph.VertexID, acc, _ uint32) uint32 {
			if v == root {
				return 1
			}
			return acc
		},
		MaxIters: iters,
	}
}

// SpMVIn iterates y = A^T x (weighted gather over in-edges) for iters
// rounds; with iters=1 it is one sparse matrix-vector product.
func SpMVIn[V core.Float](iters int) *core.Program[V] {
	return &core.Program[V]{
		Name: "SpMV",
		Agg:  core.Arith,
		InitValue: func(_ graph.View, _ graph.VertexID) V {
			return 1
		},
		GatherInit: 0,
		Gather: func(acc V, src V, w float32) V {
			return acc + src*V(w)
		},
		GatherSpan: weightedSumSpan[V],
		Apply: func(_ graph.View, _ graph.VertexID, acc, _ V) V {
			return acc
		},
		MaxIters: iters,
	}
}

// SpMV is the float64 instantiation of SpMVIn.
func SpMV(iters int) *core.Program[float64] { return SpMVIn[float64](iters) }

// SpMVF32 is the float32 instantiation of SpMVIn.
func SpMVF32(iters int) *core.Program[float32] { return SpMVIn[float32](iters) }

// SSSPTree is SSSP over the composite DistParent domain: each vertex
// carries (distance, predecessor) in one 8-byte wire word, so the run
// yields an actual shortest-path tree instead of bare distances. The
// edge-aware RelaxE records the proposing source as the parent, and Better
// breaks distance ties on the lower parent id — a strict total order, so
// results are deterministic across schedules, rank counts and transports.
func SSSPTree(root graph.VertexID) *core.Program[core.DistParent] {
	return &core.Program[core.DistParent]{
		Name: "SSSPTree",
		Agg:  core.MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) core.DistParent {
			if v == root {
				return core.DistParent{Dist: 0, Parent: core.NoParent}
			}
			return core.DistParent{Dist: float32(math.Inf(1)), Parent: core.NoParent}
		},
		Roots: []graph.VertexID{root},
		RelaxE: func(src graph.VertexID, srcVal core.DistParent, w float32) core.DistParent {
			if math.IsInf(float64(srcVal.Dist), 1) {
				// An unreached source proposes nothing: returning a
				// parented +Inf would let the tie-break below adopt it.
				return core.DistParent{Dist: srcVal.Dist, Parent: core.NoParent}
			}
			return core.DistParent{Dist: srcVal.Dist + w, Parent: src}
		},
		Better: func(a, b core.DistParent) bool {
			if a.Dist != b.Dist {
				return a.Dist < b.Dist
			}
			if math.IsInf(float64(a.Dist), 1) {
				// All unreached values are equivalent: without this guard a
				// pull round, which relaxes every in-edge, would hand
				// unreached vertices arbitrary — even mutually cyclic —
				// parents through the parent tie-break, breaking the
				// "unreached means NoParent" invariant.
				return false
			}
			return a.Parent < b.Parent
		},
	}
}

// HeatAlpha is the diffusion coefficient of HeatSimulation.
const HeatAlpha = 0.2

// HeatSimulation diffuses heat: h'(v) = (1-alpha)*h(v) + alpha*mean of
// in-neighbour heat. Sources (hot vertices) are set via init temperatures
// and are the program's Roots: heat spreads only from them.
func HeatSimulation(hot []graph.VertexID, iters int) *core.Program[float64] {
	hotSet := make(map[graph.VertexID]bool, len(hot))
	for _, v := range hot {
		hotSet[v] = true
	}
	return &core.Program[float64]{
		Name: "HeatSim",
		Agg:  core.Arith,
		InitValue: func(_ graph.View, v graph.VertexID) float64 {
			if hotSet[v] {
				return 100
			}
			return 0
		},
		Roots:      hot,
		GatherInit: 0,
		Gather: func(acc float64, src float64, _ float32) float64 {
			return acc + src
		},
		GatherSpan: core.SumSpan[float64],
		Unweighted: true,
		Apply: func(g graph.View, v graph.VertexID, acc, prev float64) float64 {
			if hotSet[v] {
				return prev // heat sources stay clamped
			}
			d := g.InDegree(v)
			if d == 0 {
				return prev
			}
			return (1-HeatAlpha)*prev + HeatAlpha*acc/float64(d)
		},
		MaxIters: iters,
	}
}

// Symmetrize returns a graph with every edge mirrored (needed by CC to find
// weakly connected components on directed inputs).
func Symmetrize(g graph.View) *graph.Graph {
	edges := graph.CollectEdges(g, nil)
	mirrored := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		mirrored = append(mirrored, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return graph.MustBuild(g.NumVertices(), mirrored)
}

// ApproxDiameter estimates the diameter by running BFS from sample roots
// and taking the deepest level observed (a standard lower-bound estimator).
// It exercises the engine's min/max path end to end.
func ApproxDiameter(g graph.View, samples []graph.VertexID, opt cluster.Options) (int, error) {
	best := 0
	for _, root := range samples {
		res, err := cluster.Execute(g, BFS(root), opt)
		if err != nil {
			return 0, err
		}
		for _, d := range res.Result.Values {
			if !math.IsInf(d, 1) && int(d) > best {
				best = int(d)
			}
		}
	}
	return best, nil
}
