// Package graph provides the in-memory graph representation used by every
// engine in this repository: a compressed-sparse-row (CSR) view of the
// outgoing edges and a compressed-sparse-column (CSC) view of the incoming
// edges, both built once from an edge list ("Formatting" stage in the SLFE
// pipeline, §3.1 of the paper).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"slfe/internal/ws"
)

// VertexID identifies a vertex. Graphs in this repository are bounded by
// 2^32 vertices, matching the paper's datasets.
type VertexID = uint32

// Edge is one directed, weighted edge.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an immutable directed graph in CSR+CSC form.
//
// Outgoing edges of v: Dst[OutOff[v]:OutOff[v+1]] with weights
// OutW[OutOff[v]:OutOff[v+1]]. Incoming edges of v: Src[InOff[v]:InOff[v+1]]
// with weights InW[...]. Both adjacency lists are sorted by neighbour ID.
type Graph struct {
	n int64 // number of vertices
	m int64 // number of directed edges

	OutOff []int64
	OutDst []VertexID
	OutW   []float32

	InOff []int64
	InSrc []VertexID
	InW   []float32

	derived Derived
}

// Derived returns g's once-slot for a value computed from its topology.
func (g *Graph) Derived() *Derived { return &g.derived }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns |E| (directed).
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 { return g.OutOff[v+1] - g.OutOff[v] }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int64 { return g.InOff[v+1] - g.InOff[v] }

// OutNeighbors returns the sorted slice of out-neighbours of v. The slice
// aliases the graph's storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.OutDst[g.OutOff[v]:g.OutOff[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v).
func (g *Graph) OutWeights(v VertexID) []float32 {
	return g.OutW[g.OutOff[v]:g.OutOff[v+1]]
}

// InNeighbors returns the sorted slice of in-neighbours of v. The slice
// aliases the graph's storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.InSrc[g.InOff[v]:g.InOff[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v).
func (g *Graph) InWeights(v VertexID) []float32 {
	return g.InW[g.InOff[v]:g.InOff[v+1]]
}

// Edges appends every edge to dst and returns it, in (src, dst) order.
func (g *Graph) Edges(dst []Edge) []Edge {
	for v := int64(0); v < g.n; v++ {
		for i := g.OutOff[v]; i < g.OutOff[v+1]; i++ {
			dst = append(dst, Edge{Src: VertexID(v), Dst: g.OutDst[i], Weight: g.OutW[i]})
		}
	}
	return dst
}

// AvgDegree returns m/n (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// MaxOutDegree returns the largest out-degree.
func (g *Graph) MaxOutDegree() int64 {
	var max int64
	for v := int64(0); v < g.n; v++ {
		if d := g.OutOff[v+1] - g.OutOff[v]; d > max {
			max = d
		}
	}
	return max
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d avgdeg=%.2f}", g.n, g.m, g.AvgDegree())
}

// ErrVertexOutOfRange reports an edge endpoint >= the declared vertex count.
var ErrVertexOutOfRange = errors.New("graph: edge endpoint out of range")

// Build constructs a Graph with n vertices from the given edges. Edge order
// is irrelevant; parallel edges and self-loops are preserved (the paper's
// datasets contain both). Weights of zero are allowed.
//
// Only the CSR is sorted: a counting sort by source, then a key sort of
// each out-list. The CSC is the sorted CSR's stable transpose — walking
// sources in ascending order fills every in-list by ascending source, and
// parallel edges arrive in the CSR's weight order — so it comes out in
// the same (neighbour id, weight) order a sort would give it.
func Build(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	g := &Graph{n: int64(n), m: int64(len(edges)), OutOff: make([]int64, n+1), InOff: make([]int64, n+1)}
	for _, e := range edges {
		if int64(e.Src) >= g.n || int64(e.Dst) >= g.n {
			return nil, fmt.Errorf("%w: (%d -> %d) with n=%d", ErrVertexOutOfRange, e.Src, e.Dst, n)
		}
		g.OutOff[e.Src+1]++
		g.InOff[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.OutOff[v+1] += g.OutOff[v]
		g.InOff[v+1] += g.InOff[v]
	}

	g.OutDst = make([]VertexID, len(edges))
	g.OutW = make([]float32, len(edges))
	cursor := slices.Clone(g.OutOff[:n])
	for _, e := range edges {
		p := cursor[e.Src]
		cursor[e.Src]++
		g.OutDst[p], g.OutW[p] = e.Dst, e.Weight
	}
	sortAdjacency(g.OutOff, g.OutDst, g.OutW, n)

	g.InSrc = make([]VertexID, len(edges))
	g.InW = make([]float32, len(edges))
	copy(cursor, g.InOff)
	for v := 0; v < n; v++ {
		for i := g.OutOff[v]; i < g.OutOff[v+1]; i++ {
			d := g.OutDst[i]
			p := cursor[d]
			cursor[d]++
			g.InSrc[p], g.InW[p] = VertexID(v), g.OutW[i]
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are constructed in-range.
func MustBuild(n int, edges []Edge) *Graph {
	g, err := Build(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAdjacency sorts every vertex's adjacency segment by (neighbour id,
// weight), the one sort Build runs. A segment already in key order — every
// segment of a graph written out in CSR order, as .slfg files are — is
// checked in place and left alone. Any other is packed into AdjSortKeys (id
// in the high half, the weight's order-preserving bit image in the low
// half), sorted by sortSegment, and unpacked; the key is self-contained,
// so no permutation tracking is needed, and a weight keeps its exact bits.
// Segments are independent, so the per-vertex sorts run chunk-parallel on
// a scheduler — graph formatting is a fixed cost on every load (§3.1's
// Formatting stage).
func sortAdjacency(off []int64, ids []VertexID, w []float32, n int) {
	if n == 0 {
		return
	}
	sched := ws.New(0, true)
	defer sched.Close()
	scratch := make([][]uint64, sched.Threads())
	sched.Run(0, uint32(n), func(clo, chi uint32, th int) {
		buf := scratch[th]
		for v := clo; v < chi; v++ {
			segIDs, segW := ids[off[v]:off[v+1]], w[off[v]:off[v+1]]
			if inKeyOrder(segIDs, segW) {
				continue
			}
			buf = sortSegment(buf[:0], segIDs, segW)
			for i, k := range buf {
				segIDs[i], segW[i] = AdjSortKeyDecode(k)
			}
		}
		scratch[th] = buf
	})
}

// inKeyOrder reports whether a segment is already sorted by AdjSortKey.
func inKeyOrder(ids []VertexID, w []float32) bool {
	for i := 1; i < len(ids); i++ {
		if AdjSortKey(ids[i-1], w[i-1]) > AdjSortKey(ids[i], w[i]) {
			return false
		}
	}
	return true
}

// orderedWeightBits maps a float32 to a uint32 whose unsigned order matches
// the float order (sign bit flipped for non-negatives, all bits inverted
// for negatives — the classic radix-sort transform). The mapping is a
// bijection, so weights round-trip bit-exactly through the packed sort key.
func orderedWeightBits(f float32) uint32 {
	b := math.Float32bits(f)
	if b&0x8000_0000 != 0 {
		return ^b
	}
	return b | 0x8000_0000
}

// weightFromOrderedBits inverts orderedWeightBits.
func weightFromOrderedBits(x uint32) float32 {
	if x&0x8000_0000 != 0 {
		return math.Float32frombits(x ^ 0x8000_0000)
	}
	return math.Float32frombits(^x)
}

// Reverse returns the transpose graph (every edge flipped).
func (g *Graph) Reverse() *Graph {
	return &Graph{
		n: g.n, m: g.m,
		OutOff: g.InOff, OutDst: g.InSrc, OutW: g.InW,
		InOff: g.OutOff, InSrc: g.OutDst, InW: g.OutW,
	}
}

// Validate performs structural integrity checks and returns the first
// violation found, if any. It is used by tests and by loaders after reading
// untrusted input.
func (g *Graph) Validate() error {
	if g.n < 0 || g.m < 0 {
		return errors.New("graph: negative size")
	}
	if int64(len(g.OutOff)) != g.n+1 || int64(len(g.InOff)) != g.n+1 {
		return errors.New("graph: offset array length mismatch")
	}
	if g.OutOff[0] != 0 || g.InOff[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	if g.OutOff[g.n] != g.m || g.InOff[g.n] != g.m {
		return errors.New("graph: offsets must end at m")
	}
	for v := int64(0); v < g.n; v++ {
		if g.OutOff[v] > g.OutOff[v+1] || g.InOff[v] > g.InOff[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at vertex %d", v)
		}
	}
	if int64(len(g.OutDst)) != g.m || int64(len(g.InSrc)) != g.m {
		return errors.New("graph: edge array length mismatch")
	}
	for _, d := range g.OutDst {
		if int64(d) >= g.n {
			return fmt.Errorf("%w: out-dst %d", ErrVertexOutOfRange, d)
		}
	}
	for _, s := range g.InSrc {
		if int64(s) >= g.n {
			return fmt.Errorf("%w: in-src %d", ErrVertexOutOfRange, s)
		}
	}
	return nil
}
