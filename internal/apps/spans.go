package apps

import (
	"slfe/internal/core"
	"slfe/internal/graph"
)

// Span hooks (core.Program.RelaxSpan / GatherSpan) of the programs in
// apps.go: each loop is the program's per-edge hooks inlined — same edge
// order, same single accumulator, same comparison — so the engine pays one
// indirect call per vertex instead of two per edge. TestSpanHooksMatchLifted
// pins every one bit-identical to the per-edge path.

// minPlusSpan is SSSPIn's span: min over dist[src]+w.
func minPlusSpan[V core.Float](best V, vals []V, ins []graph.VertexID, ws []float32) V {
	for i, u := range ins {
		if cand := vals[u] + V(ws[i]); cand < best {
			best = cand
		}
	}
	return best
}

// minHopSpan is BFSIn's span: min over level[src]+1.
func minHopSpan[V core.Float](best V, vals []V, ins []graph.VertexID, _ []float32) V {
	for _, u := range ins {
		if cand := vals[u] + 1; cand < best {
			best = cand
		}
	}
	return best
}

// minHopU32Span is BFSU32's span, saturating like its Relax.
func minHopU32Span(best uint32, vals []uint32, ins []graph.VertexID, _ []float32) uint32 {
	for _, u := range ins {
		cand := vals[u]
		if cand >= core.U32Unreached-1 {
			cand = core.U32Unreached
		} else {
			cand++
		}
		if cand < best {
			best = cand
		}
	}
	return best
}

// minLabelSpan is the CC programs' span: min over label[src].
func minLabelSpan[V core.Float | ~uint32](best V, vals []V, ins []graph.VertexID, _ []float32) V {
	for _, u := range ins {
		if cand := vals[u]; cand < best {
			best = cand
		}
	}
	return best
}

// maxMinSpan is WPIn's span: max over min(width[src], w).
func maxMinSpan[V core.Float](best V, vals []V, ins []graph.VertexID, ws []float32) V {
	for i, u := range ins {
		cand := vals[u]
		if mw := V(ws[i]); mw < cand {
			cand = mw
		}
		if cand > best {
			best = cand
		}
	}
	return best
}

// weightedSumSpan is SpMVIn's span: sum over x[src]*w.
func weightedSumSpan[V core.Float](acc V, vals []V, ins []graph.VertexID, ws []float32) V {
	for i, u := range ins {
		acc = acc + vals[u]*V(ws[i])
	}
	return acc
}
