// Package partition assigns vertices to cluster nodes. SLFE inherits
// Gemini's chunk-based partitioning (§3.1, §3.6): each node owns one
// contiguous vertex range, balanced by a hybrid cost of vertices and edges,
// which preserves locality and makes ownership tests a binary search. A
// hash partitioner (the classic Pregel ingress) is provided as a comparison
// point, and balance metrics quantify partition quality for Figure 10b.
package partition

import (
	"errors"
	"fmt"
	"slices"

	"slfe/internal/graph"
)

// Partition maps every vertex to an owning node.
type Partition interface {
	// Owner returns the node id owning v.
	Owner(v graph.VertexID) int
	// Nodes returns the number of nodes.
	Nodes() int
	// Owned returns the vertices owned by node as a half-open range or, for
	// non-contiguous schemes, an explicit list via the iterator.
	Owned(node int, fn func(v graph.VertexID) bool)
	// Count returns the number of vertices owned by node.
	Count(node int) int
}

// Chunked is a contiguous-range partition. Boundaries[i] is the first vertex
// of node i; Boundaries[len] == |V|. It is the engine's one ownership map:
// the static chunking, a rebalance plan (internal/balance) and the ranges a
// checkpoint shard records are all Chunked values.
type Chunked struct {
	boundaries []graph.VertexID // length nodes+1
}

// alpha weighs edges against vertices in Gemini's balance cost
// (cost(v) = alpha + deg(v)); Gemini uses 8*(nodes-1)+1 but a plain constant
// behaves identically at our scales.
const alpha = 8

// NewChunked builds a degree-balanced contiguous partition of g over nodes
// ranges, mirroring Gemini's chunking. It never produces empty heads: if
// there are fewer vertices than nodes the trailing nodes own empty ranges.
func NewChunked(g graph.View, nodes int) (*Chunked, error) {
	if nodes <= 0 {
		return nil, errors.New("partition: nodes must be positive")
	}
	n := g.NumVertices()
	total := float64(0)
	for v := 0; v < n; v++ {
		total += alpha + float64(g.OutDegree(graph.VertexID(v)))
	}
	target := total / float64(nodes)
	b := make([]graph.VertexID, nodes+1)
	v := 0
	for node := 0; node < nodes; node++ {
		b[node] = graph.VertexID(v)
		acc := float64(0)
		for v < n && (acc < target || node == nodes-1) {
			acc += alpha + float64(g.OutDegree(graph.VertexID(v)))
			v++
			if node < nodes-1 && acc >= target {
				break
			}
		}
	}
	b[nodes] = graph.VertexID(n)
	return &Chunked{boundaries: b}, nil
}

// FromBounds builds a contiguous partition from explicit boundaries:
// bounds[0] must be 0 and the array non-decreasing; bounds[len-1] is the
// vertex count. It installs the ranges balance.Plan, Shrink and Grow
// produce, and the ranges a resumed checkpoint shard was written under.
func FromBounds(bounds []uint32) (*Chunked, error) {
	if len(bounds) < 2 {
		return nil, errors.New("partition: need at least two boundaries")
	}
	if bounds[0] != 0 {
		return nil, errors.New("partition: boundaries must start at 0")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("partition: boundary %d decreases", i)
		}
	}
	return &Chunked{boundaries: slices.Clone(bounds)}, nil
}

// NewChunkedUniform splits [0,n) into near-equal vertex-count ranges,
// ignoring degrees. Used by tests and by the RMAT scale-out runs where the
// generator already randomises degree placement.
func NewChunkedUniform(n, nodes int) (*Chunked, error) {
	if nodes <= 0 {
		return nil, errors.New("partition: nodes must be positive")
	}
	b := make([]graph.VertexID, nodes+1)
	for i := 0; i <= nodes; i++ {
		b[i] = graph.VertexID(i * n / nodes)
	}
	return &Chunked{boundaries: b}, nil
}

// Owner returns the node owning v by binary search over the boundaries;
// empty ranges are skipped by the search direction. Sparse delta-sync calls
// it once per routed out-neighbour, hence the plain loop instead of
// sort.Search and its closure.
func (c *Chunked) Owner(v graph.VertexID) int {
	lo, hi := 0, len(c.boundaries)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.boundaries[mid+1] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Nodes returns the node count.
func (c *Chunked) Nodes() int { return len(c.boundaries) - 1 }

// Range returns node's owned range [lo, hi).
func (c *Chunked) Range(node int) (lo, hi graph.VertexID) {
	return c.boundaries[node], c.boundaries[node+1]
}

// Bounds returns a copy of the boundary array (Nodes()+1 entries).
func (c *Chunked) Bounds() []uint32 { return slices.Clone(c.boundaries) }

// Owned iterates node's vertices in ascending order.
func (c *Chunked) Owned(node int, fn func(v graph.VertexID) bool) {
	lo, hi := c.Range(node)
	for v := lo; v < hi; v++ {
		if !fn(v) {
			return
		}
	}
}

// Count returns the number of vertices owned by node.
func (c *Chunked) Count(node int) int {
	lo, hi := c.Range(node)
	return int(hi - lo)
}

func (c *Chunked) String() string {
	return fmt.Sprintf("chunked%v", c.boundaries)
}

// Hashed is the classic hash (modulo) partition used by Pregel/PowerGraph
// ingress; it destroys locality but balances vertex counts exactly.
type Hashed struct {
	n     int
	nodes int
}

// NewHashed builds a modulo partition of n vertices over nodes.
func NewHashed(n, nodes int) (*Hashed, error) {
	if nodes <= 0 {
		return nil, errors.New("partition: nodes must be positive")
	}
	return &Hashed{n: n, nodes: nodes}, nil
}

// Owner returns v mod nodes.
func (h *Hashed) Owner(v graph.VertexID) int { return int(v) % h.nodes }

// Nodes returns the node count.
func (h *Hashed) Nodes() int { return h.nodes }

// Owned iterates node's vertices in ascending order.
func (h *Hashed) Owned(node int, fn func(v graph.VertexID) bool) {
	for v := node; v < h.n; v += h.nodes {
		if !fn(graph.VertexID(v)) {
			return
		}
	}
}

// Count returns the number of vertices owned by node.
func (h *Hashed) Count(node int) int {
	if node >= h.n%h.nodes {
		return h.n / h.nodes
	}
	return h.n/h.nodes + 1
}

// Balance summarises partition quality.
type Balance struct {
	VertexImbalance float64 // max/mean owned vertices (1.0 = perfect)
	EdgeImbalance   float64 // max/mean owned out-edges (1.0 = perfect)
	EdgeCut         float64 // fraction of edges crossing node boundaries
}

// Measure computes balance metrics of p over g.
func Measure(g graph.View, p Partition) Balance {
	nodes := p.Nodes()
	verts := make([]int64, nodes)
	edges := make([]int64, nodes)
	var cut, m int64
	for v := 0; v < g.NumVertices(); v++ {
		owner := p.Owner(graph.VertexID(v))
		verts[owner]++
		edges[owner] += g.OutDegree(graph.VertexID(v))
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			m++
			if p.Owner(u) != owner {
				cut++
			}
		}
	}
	maxOf := func(xs []int64) (mx, sum int64) {
		for _, x := range xs {
			sum += x
			if x > mx {
				mx = x
			}
		}
		return
	}
	var b Balance
	if mx, sum := maxOf(verts); sum > 0 {
		b.VertexImbalance = float64(mx) * float64(nodes) / float64(sum)
	}
	if mx, sum := maxOf(edges); sum > 0 {
		b.EdgeImbalance = float64(mx) * float64(nodes) / float64(sum)
	}
	if m > 0 {
		b.EdgeCut = float64(cut) / float64(m)
	}
	return b
}
