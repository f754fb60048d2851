// Package graph provides the in-memory graph representation used by every
// engine in this repository: a compressed-sparse-row (CSR) view of the
// outgoing edges and a compressed-sparse-column (CSC) view of the incoming
// edges, both built once from an edge list ("Formatting" stage in the SLFE
// pipeline, §3.1 of the paper). WithEdges derives versions that share those
// arrays and copy only the lists a batch touches.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// Each direction (out: the CSR, in: the CSC) is a side: a flat base plus,
// for a version WithEdges derived, a patch holding the lists its batches
// touched. Every adjacency list is sorted by (neighbour id, weight).
type Graph struct {
	n int64 // number of vertices
	m int64 // number of directed edges

	out, in side

	derived Derived
}

// csr is flat adjacency: row r's list is ids[off[r]:off[r+1]], with
// weights w[off[r]:off[r+1]].
type csr struct {
	off []int64
	ids []VertexID
	w   []float32
}

// side is one direction of a Graph. base is the flat adjacency of the last
// full build, over its first len(base.off)-1 vertices; every version
// WithEdges derives from that build shares it, and none writes it. patch is
// nil for a flat graph; otherwise it holds the current list of every vertex
// touched since the build, and every vertex appended past base counts as
// touched (its row is empty until an edge reaches it). Any other vertex
// reads base.
type side struct {
	patch *patch // first: the accessors test it before reading base
	base  csr
}

// patch holds the lists of the touched vertices, one csr row each in
// ascending vertex order. rank turns "which row is v's" into a lookup:
// v's row is rank[v/64] plus the touched bits below v in its word.
type patch struct {
	touched []uint64 // bit v set: v's list lives in the patch
	rank    []uint32 // rank[i]: touched vertices below 64·i
	csr
}

// has reports whether v's list lives in p. A nil patch holds no list, so
// for a flat side this is the one nil check the accessors pay.
func (p *patch) has(v VertexID) bool {
	return p != nil && int(v>>6) < len(p.touched) && p.touched[v>>6]&(1<<(v&63)) != 0
}

// rowsBelow returns how many touched vertices are below v, which for a
// touched v is its row.
func (p *patch) rowsBelow(v VertexID) int {
	i := int(v >> 6)
	if i >= len(p.touched) {
		return len(p.off) - 1
	}
	return int(p.rank[i]) + popcount(p.touched[i]&(uint64(1)<<(v&63)-1))
}

// popcount is bits.OnesCount64 without its fallback call on CPUs that lack
// POPCNT, which would give every accessor a stack frame.
func popcount(x uint64) int {
	x -= x >> 1 & 0x5555_5555_5555_5555
	x = x&0x3333_3333_3333_3333 + x>>2&0x3333_3333_3333_3333
	x = (x + x>>4) & 0x0f0f_0f0f_0f0f_0f0f
	return int(x * 0x0101_0101_0101_0101 >> 56)
}

// lookup returns the arrays holding v's list and its bounds in them. It
// also answers for a vertex past a flat side's base, which WithEdges asks
// about when a batch appends vertices.
func (s *side) lookup(v VertexID) (*csr, int64, int64) {
	if p := s.patch; p.has(v) {
		r := p.rowsBelow(v)
		return &p.csr, p.off[r], p.off[r+1]
	}
	if int(v) >= len(s.base.off)-1 {
		return &s.base, 0, 0
	}
	return &s.base, s.base.off[v], s.base.off[v+1]
}

// Derived returns g's once-slot for a value computed from its topology.
func (g *Graph) Derived() *Derived { return &g.derived }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns |E| (directed).
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 {
	if p := g.out.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.off[r+1] - p.off[r]
	}
	return g.out.base.off[v+1] - g.out.base.off[v]
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int64 {
	if p := g.in.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.off[r+1] - p.off[r]
	}
	return g.in.base.off[v+1] - g.in.base.off[v]
}

// OutNeighbors returns the sorted slice of out-neighbours of v. The slice
// aliases the graph's storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	if p := g.out.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.ids[p.off[r]:p.off[r+1]]
	}
	return g.out.base.ids[g.out.base.off[v]:g.out.base.off[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v).
func (g *Graph) OutWeights(v VertexID) []float32 {
	if p := g.out.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.w[p.off[r]:p.off[r+1]]
	}
	return g.out.base.w[g.out.base.off[v]:g.out.base.off[v+1]]
}

// InNeighbors returns the sorted slice of in-neighbours of v. The slice
// aliases the graph's storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	if p := g.in.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.ids[p.off[r]:p.off[r+1]]
	}
	return g.in.base.ids[g.in.base.off[v]:g.in.base.off[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v).
func (g *Graph) InWeights(v VertexID) []float32 {
	if p := g.in.patch; p.has(v) {
		r := p.rowsBelow(v)
		return p.w[p.off[r]:p.off[r+1]]
	}
	return g.in.base.w[g.in.base.off[v]:g.in.base.off[v+1]]
}

// Edges appends every edge to dst and returns it, in (src, dst) order.
func (g *Graph) Edges(dst []Edge) []Edge {
	for v := VertexID(0); int64(v) < g.n; v++ {
		a, lo, hi := g.out.lookup(v)
		for i := lo; i < hi; i++ {
			dst = append(dst, Edge{Src: v, Dst: a.ids[i], Weight: a.w[i]})
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
	for v := VertexID(0); int64(v) < g.n; v++ {
		if d := g.OutDegree(v); d > max {
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
// Build counting-sorts the edges by source into a CSR and finishes it as
// FromCSR does. Both counting sorts, this one and the transpose, run on
// every core and give the arrays a serial pass gives (see countingSort).
func Build(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	sched := ws.New(0, true)
	defer sched.Close()
	off, ids, w := make([]int64, n+1), make([]VertexID, len(edges)), make([]float32, len(edges))
	err := countingSort(sched, n, len(edges), off,
		func(lo, hi int, hist []int64) error {
			for _, e := range edges[lo:hi] {
				if int64(e.Src) >= int64(n) || int64(e.Dst) >= int64(n) {
					return fmt.Errorf("%w: (%d -> %d) with n=%d", ErrVertexOutOfRange, e.Src, e.Dst, n)
				}
				hist[e.Src]++
			}
			return nil
		},
		func(lo, hi int, next []int64) {
			for _, e := range edges[lo:hi] {
				ids[next[e.Src]], w[next[e.Src]] = e.Dst, e.Weight
				next[e.Src]++
			}
		})
	if err != nil {
		return nil, err
	}
	return finish(sched, n, off, ids, w), nil
}

// FromCSR returns the graph whose out-lists are grouped by source, in any
// order: v's list is ids[off[v]:off[v+1]], weighted by w[off[v]:off[v+1]].
// The offsets must run from 0 to len(ids) == len(w) without falling, and
// every id must be below n. FromCSR takes the arrays over, key-sorts each
// list and transposes the CSR into the CSC: over the same edges it gives
// Build's graph.
func FromCSR(n int, off []int64, ids []VertexID, w []float32) *Graph {
	sched := ws.New(0, true)
	defer sched.Close()
	return finish(sched, n, off, ids, w)
}

// finish is FromCSR on sched. The CSC is the sorted CSR's stable
// transpose, so every in-list comes out in (neighbour id, weight) order.
func finish(sched *ws.Scheduler, n int, off []int64, ids []VertexID, w []float32) *Graph {
	sortAdjacency(sched, off, ids, w, n)
	inOff, inSrc, inW := make([]int64, n+1), make([]VertexID, len(ids)), make([]float32, len(ids))
	countingSort(sched, n, len(ids), inOff,
		func(lo, hi int, hist []int64) error {
			for _, d := range ids[lo:hi] {
				hist[d]++
			}
			return nil
		},
		func(lo, hi int, next []int64) {
			// The part starts in the first list ending past edge lo.
			v, _ := slices.BinarySearch(off[1:], int64(lo)+1)
			for ; v < n && off[v] < int64(hi); v++ {
				for i := max(off[v], int64(lo)); i < min(off[v+1], int64(hi)); i++ {
					p := next[ids[i]]
					next[ids[i]]++
					inSrc[p], inW[p] = VertexID(v), w[i]
				}
			}
		})
	return &Graph{n: int64(n), m: int64(len(ids)), out: side{base: csr{off, ids, w}}, in: side{base: csr{inOff, inSrc, inW}}}
}

// testParts, when positive, overrides partsFor in tests.
var testParts int

// partsFor returns the part count of a counting sort of m edges into n
// lists: one per thread, while each part gets 2^16 and over n edges.
func partsFor(sched *ws.Scheduler, n, m int) int {
	return cmp.Or(testParts, max(1, min(sched.Threads(), m>>16, m/(n+1))))
}

// countingSort is a stable counting sort of m items into n buckets, which
// fills off with the bucket offsets. The items are split into partsFor
// contiguous parts, each counted by count(lo, hi, hist) into its own
// histogram and placed by place(lo, hi, next) at next[bucket]++. A prefix
// sum in part order turns the histograms into cursors, so every bucket
// holds its items in input order. A count error stops the sort.
func countingSort(sched *ws.Scheduler, n, m int, off []int64,
	count func(lo, hi int, hist []int64) error, place func(lo, hi int, next []int64)) error {
	parts := partsFor(sched, n, m)
	hist := make([]int64, parts*n)
	errs := make([]error, parts)
	eachPart := func(fn func(p int)) { // one part per scheduler chunk
		sched.Run(0, uint32(parts)*ws.ChunkSize, func(lo, _ uint32, _ int) { fn(int(lo / ws.ChunkSize)) })
	}
	eachPart(func(p int) { errs[p] = count(m*p/parts, m*(p+1)/parts, hist[p*n:(p+1)*n]) })
	if err := cmp.Or(errs...); err != nil {
		return err
	}
	var run int64
	for v := 0; v < n; v++ {
		for p := v; p < len(hist); p += n {
			hist[p], run = run, run+hist[p]
		}
		off[v+1] = run
	}
	eachPart(func(p int) { place(m*p/parts, m*(p+1)/parts, hist[p*n:(p+1)*n]) })
	return nil
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
// sched — graph formatting is a fixed cost on every load (§3.1's
// Formatting stage).
func sortAdjacency(sched *ws.Scheduler, off []int64, ids []VertexID, w []float32, n int) {
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

// sortSegment appends the AdjSortKey of every (id, weight) pair to keys
// and returns them sorted ascending.
func sortSegment(keys []uint64, ids []VertexID, w []float32) []uint64 {
	for i := range ids {
		keys = append(keys, AdjSortKey(ids[i], w[i]))
	}
	// Insertion sort: a typical adjacency list is short; fall back to a
	// pdq sort when not.
	if len(keys) > 32 {
		slices.Sort(keys)
		return keys
	}
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
	return keys
}

// inKeyOrder reports whether a segment is already sorted by AdjSortKey.
func inKeyOrder(ids []VertexID, w []float32) bool {
	for i := 1; i < len(ids) && i < len(w); i++ {
		if ids[i-1] > ids[i] || ids[i-1] == ids[i] && orderedWeightBits(w[i-1]) > orderedWeightBits(w[i]) {
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

// Validate performs structural integrity checks and returns the first
// violation found, if any. It is used by tests and by loaders after reading
// untrusted input.
func (g *Graph) Validate() error {
	if g.n < 0 || g.m < 0 {
		return errors.New("graph: negative size")
	}
	if err := g.out.validate(g.n, g.m); err != nil {
		return fmt.Errorf("%w (out)", err)
	}
	if err := g.in.validate(g.n, g.m); err != nil {
		return fmt.Errorf("%w (in)", err)
	}
	return nil
}

// validate checks one side over n vertices and m edges: its base and
// patch are each well formed, the rank words count the touched bits, and
// the lists the side serves hold m edges in all.
func (s *side) validate(n, m int64) error {
	rows := int64(len(s.base.off)) - 1
	if rows > n || (s.patch == nil && rows != n) {
		return errors.New("graph: offset array length mismatch")
	}
	if err := s.base.validate(n); err != nil {
		return err
	}
	edges := int64(len(s.base.ids))
	if p := s.patch; p != nil {
		if int64(len(p.touched)) != (n+63)/64 || len(p.rank) != len(p.touched) {
			return errors.New("graph: patch bitset length mismatch")
		}
		var count uint32
		for i, word := range p.touched {
			if p.rank[i] != count {
				return fmt.Errorf("graph: patch rank mismatch at word %d", i)
			}
			count += uint32(bits.OnesCount64(word))
			for ; word != 0; word &= word - 1 {
				v := int64(i)*64 + int64(bits.TrailingZeros64(word))
				if v >= n {
					return fmt.Errorf("%w: patched vertex %d", ErrVertexOutOfRange, v)
				}
				if v < rows {
					edges -= s.base.off[v+1] - s.base.off[v]
				}
			}
		}
		for v := rows; v < n; v++ {
			if !p.has(VertexID(v)) {
				return fmt.Errorf("graph: vertex %d past the base is not in the patch", v)
			}
		}
		if int64(len(p.off)) != int64(count)+1 {
			return errors.New("graph: patch offset length mismatch")
		}
		if err := p.csr.validate(n); err != nil {
			return err
		}
		edges += int64(len(p.ids))
	}
	if edges != m {
		return errors.New("graph: offsets must end at m")
	}
	return nil
}

// validate checks that c's offsets start at 0, never fall and end at its
// edge count, and that every id is below n.
func (c *csr) validate(n int64) error {
	if len(c.off) == 0 || c.off[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	for r := 1; r < len(c.off); r++ {
		if c.off[r-1] > c.off[r] {
			return fmt.Errorf("graph: non-monotone offsets at row %d", r-1)
		}
	}
	if c.off[len(c.off)-1] != int64(len(c.ids)) || len(c.ids) != len(c.w) {
		return errors.New("graph: edge array length mismatch")
	}
	for _, id := range c.ids {
		if int64(id) >= n {
			return fmt.Errorf("%w: neighbour %d", ErrVertexOutOfRange, id)
		}
	}
	return nil
}
