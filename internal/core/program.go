// Package core implements the SLFE execution engine (§3 of the paper): a
// BSP, vertex-centric, dual-mode (push/pull) distributed runtime whose
// arith path applies redundancy-reduction guidance: "finish early"
// early-convergence detection (Algorithm 5, per-vertex RulerS). The paper's
// "start late" scheduling for min/max aggregations (Algorithm 2) is not
// applied: against the push/pull switch it cost more than it saved on every
// input measured, so a min/max run reads no guidance.
//
// The min/max pull contract: every vertex of a pull round relaxes all its
// in-edges, whatever its sources did last round.
//
// Applications are expressed as a declarative Program: the engine owns the
// edgeProc traversal (Table 3's APIs) and calls the program's relaxation /
// gather / apply hooks, which keeps user code as small as Algorithms 4-5.
//
// The engine stack is generic over the vertex property type: a Program[V]
// picks a value Domain (F64, F32, U32, or a composite like DistParent) and
// every layer below — kernels, delta-sync, overlapped streaming,
// checkpoints, wire codecs — works in that domain's width.
package core

import (
	"errors"
	"fmt"
	"math"

	"slfe/internal/graph"
)

// Value is the property type of the original float64 engine; the f64
// domain remains the differential oracle for the narrower domains.
type Value = float64

// AggKind classifies a program by its core aggregation function (Table 1).
type AggKind int

// Aggregation classes.
const (
	// MinMax programs (SSSP, CC, WidestPath, BFS, ...) aggregate with a
	// comparison; they are frontier-driven and switch between push and
	// pull.
	MinMax AggKind = iota
	// Arith programs (PageRank, TunkRank, NumPaths, ...) aggregate with
	// sum/product; they always pull (§3.3 footnote) and use "finish early".
	Arith
)

func (k AggKind) String() string {
	if k == Arith {
		return "arith"
	}
	return "min/max"
}

// Program declares one graph application over property type V.
type Program[V comparable] struct {
	// Name identifies the program in logs and experiment tables.
	Name string
	// Agg selects the aggregation class.
	Agg AggKind

	// Dom is the value domain (identity, wire width, bit codec, change
	// arithmetic). Programs over the built-in property types (float64,
	// float32, uint32, DistParent) may leave it zero: Validate fills in
	// DefaultDomain.
	Dom Domain[V]

	// InitValue returns the initial property of v (e.g. 0 for roots, +Inf
	// elsewhere in SSSP). Must be deterministic: every worker calls it.
	InitValue func(g graph.View, v graph.VertexID) V

	// Roots are where the program's information starts. A MinMax program
	// needs them: they are its initially active vertices. An Arith program
	// iterates over every vertex regardless; it declares Roots only when
	// its values originate at those vertices alone (NumPaths' source, heat
	// sources, BP evidence), and a redundancy-reduction run then measures
	// "finish early" levels from them instead of from the default roots.
	Roots []graph.VertexID

	// --- MinMax hooks ---

	// Relax proposes a value for the destination of an edge carrying the
	// source's value (SSSP: src+w; WidestPath: min(src, w); CC: src).
	Relax func(srcVal V, w float32) V
	// RelaxE is the edge-aware form of Relax: it also receives the source
	// vertex id, which composite domains need (DistParent records the
	// predecessor). When set it takes precedence over Relax.
	RelaxE func(src graph.VertexID, srcVal V, w float32) V
	// Better reports whether a beats b under the aggregation order
	// (SSSP/CC: a < b; WidestPath: a > b). It must be a strict total-order
	// test so folding push proposals is order-insensitive.
	Better func(a, b V) bool
	// RelaxSpan is the optional span form of Relax/RelaxE + Better, called
	// once per computing vertex by the pull kernel: starting from best (the
	// vertex's current value), fold every in-edge (ins[i], ws[i]) and return
	// the winner. vals is the whole value array, indexed by vertex id. A
	// pull relaxes all in-edges, not just those whose source changed last
	// round: the aggregation is idempotent and values only improve, so an
	// unchanged source cannot beat what it already offered, and the loop
	// needs no per-edge activity branch (the kernel counts active in-edges
	// itself). The hook must visit edges left to right and decide exactly as
	// the per-edge hooks would (a candidate replaces best only when
	// Better(cand, best)), so results are bit-identical to the lifted
	// per-edge path a program without it runs on.
	RelaxSpan func(best V, vals []V, ins []graph.VertexID, ws []float32) V

	// --- Arith hooks ---

	// GatherInit is the accumulator's identity value (0 for sum).
	GatherInit V
	// Gather folds one in-edge into the accumulator (PR: acc + srcVal).
	Gather func(acc V, srcVal V, w float32) V
	// GatherSpan is the optional span form of Gather, called once per vertex
	// by the arith kernel: fold every in-edge (ins[i], ws[i]) into acc, left
	// to right through the one accumulator — the order Gather would be
	// called in — so results are bit-identical to the lifted per-edge path.
	GatherSpan func(acc V, vals []V, ins []graph.VertexID, ws []float32) V
	// Apply is the vertexUpdate vOp: combines the accumulator and the
	// vertex's previous property into its next property
	// (PR: (0.15+0.85*acc)/outdeg, ignoring prev).
	Apply func(g graph.View, v graph.VertexID, acc, prev V) V
	// MaxIters bounds arith iterations (0 means the engine default of 100).
	MaxIters int
	// Epsilon terminates when the largest property change (Dom.Delta) of
	// an iteration falls below it (0 keeps iterating until MaxIters or
	// all-EC).
	Epsilon float64
	// StableEps is the relative equality tolerance for the stability
	// counter of Algorithm 5 (0 means exact equality). The paper relies on
	// float32 hardware precision to make successive ranks compare equal
	// (§2.2), so F32 programs should leave it 0 — exact equality is the
	// paper-faithful test and it converges because float32 rounding
	// saturates. Only F64 programs need a tolerance: with 52 mantissa bits
	// the last few ulps keep twitching long after the ranks are stable,
	// and without StableEps "finish early" would never fire.
	StableEps float64

	// Unweighted declares that the hooks never read an edge weight (w or
	// ws). The kernels then ask the graph for no weights at all — over a
	// compressed file no weight block is decoded — span hooks get ws ==
	// nil, and the lifted per-edge hooks get w = 1.
	Unweighted bool
}

// Validate reports the first structural problem with the program. It
// never mutates the program: one Program value is routinely shared by
// every worker goroutine of a cluster.
func (p *Program[V]) Validate() error {
	if p.Name == "" {
		return errors.New("core: program needs a name")
	}
	if _, err := p.domain(); err != nil {
		return err
	}
	if p.InitValue == nil {
		return fmt.Errorf("core: program %s needs InitValue", p.Name)
	}
	switch p.Agg {
	case MinMax:
		if (p.Relax == nil && p.RelaxE == nil) || p.Better == nil {
			return fmt.Errorf("core: min/max program %s needs Relax (or RelaxE) and Better", p.Name)
		}
		if len(p.Roots) == 0 {
			return fmt.Errorf("core: min/max program %s needs roots", p.Name)
		}
	case Arith:
		if p.Gather == nil || p.Apply == nil {
			return fmt.Errorf("core: arith program %s needs Gather and Apply", p.Name)
		}
	default:
		return fmt.Errorf("core: program %s has unknown aggregation %d", p.Name, p.Agg)
	}
	return nil
}

// domain resolves the program's effective value domain — Dom when set,
// else the built-in default for V — without mutating the (shared) program.
func (p *Program[V]) domain() (Domain[V], error) {
	dom := p.Dom
	if dom.Name == "" {
		if dom.Width != 0 || dom.Bits != nil || dom.FromBits != nil || dom.Delta != nil || dom.Float64 != nil {
			// A partially-built custom domain must not be silently
			// replaced by the default — the custom hooks would be dropped.
			return dom, fmt.Errorf("core: program %s sets Domain hooks but no Name; name the domain or leave Dom entirely zero for the built-in default", p.Name)
		}
		var ok bool
		dom, ok = DefaultDomain[V]()
		if !ok {
			return dom, fmt.Errorf("core: program %s needs an explicit Dom (no default domain for its property type)", p.Name)
		}
	}
	if err := dom.valid(); err != nil {
		return dom, fmt.Errorf("core: program %s: %w", p.Name, err)
	}
	return dom, nil
}

// relax resolves the relaxation hook: RelaxE when set, else Relax lifted
// over the ignored source id. Called once per run (not per edge).
func (p *Program[V]) relax() func(src graph.VertexID, srcVal V, w float32) V {
	if p.RelaxE != nil {
		return p.RelaxE
	}
	rx := p.Relax
	return func(_ graph.VertexID, srcVal V, w float32) V { return rx(srcVal, w) }
}

// relaxSpan resolves the pull kernel's per-vertex hook: the program's
// RelaxSpan, else its per-edge hooks lifted into one, which never index ws
// of an Unweighted program. Called once per run.
func (p *Program[V]) relaxSpan() func(best V, vals []V, ins []graph.VertexID, ws []float32) V {
	if p.RelaxSpan != nil {
		return p.RelaxSpan
	}
	relax, better := p.relax(), p.Better
	if p.Unweighted {
		return func(best V, vals []V, ins []graph.VertexID, _ []float32) V {
			for _, u := range ins {
				if cand := relax(u, vals[u], 1); better(cand, best) {
					best = cand
				}
			}
			return best
		}
	}
	return func(best V, vals []V, ins []graph.VertexID, ws []float32) V {
		for i, u := range ins {
			if cand := relax(u, vals[u], ws[i]); better(cand, best) {
				best = cand
			}
		}
		return best
	}
}

// gatherSpan resolves the arith kernel's per-vertex hook the same way.
func (p *Program[V]) gatherSpan() func(acc V, vals []V, ins []graph.VertexID, ws []float32) V {
	if p.GatherSpan != nil {
		return p.GatherSpan
	}
	gather := p.Gather
	if p.Unweighted {
		return func(acc V, vals []V, ins []graph.VertexID, _ []float32) V {
			for _, u := range ins {
				acc = gather(acc, vals[u], 1)
			}
			return acc
		}
	}
	return func(acc V, vals []V, ins []graph.VertexID, ws []float32) V {
		for i, u := range ins {
			acc = gather(acc, vals[u], ws[i])
		}
		return acc
	}
}

// inWeights returns v's in-edge weights through cur, and nil without a read
// for an Unweighted program.
func (p *Program[V]) inWeights(cur graph.Cursor, v graph.VertexID) []float32 {
	if p.Unweighted {
		return nil
	}
	return cur.InWeights(v)
}

// SumSpan is the GatherSpan of an unweighted sum (Gather: acc + srcVal).
func SumSpan[V Float | ~uint32](acc V, vals []V, ins []graph.VertexID, _ []float32) V {
	for _, u := range ins {
		acc += vals[u]
	}
	return acc
}

// maxItersOrDefault returns the iteration bound.
func (p *Program[V]) maxItersOrDefault() int {
	if p.MaxIters > 0 {
		return p.MaxIters
	}
	return 100
}

// stable reports whether two successive values are equal under the
// relative tolerance StableEps, projecting through dom (the engine's
// resolved domain — p.Dom may be unset). With StableEps == 0 the test is
// exact equality — the paper-faithful rule every non-F64 domain should
// use.
func (p *Program[V]) stable(dom Domain[V], a, b V) bool {
	if p.StableEps == 0 {
		return a == b
	}
	fa, fb := dom.Float64(a), dom.Float64(b)
	return math.Abs(fa-fb) <= p.StableEps*math.Max(math.Abs(fa), math.Abs(fb))
}
