package graph

import "sync"

// Derived is a once-slot for one value computed from a graph's topology —
// the default-root redundancy-reduction guidance (rrg.Shared) — so every
// program run over the same graph object shares one computation. A View
// that holds a slot (*Graph and store.Graph expose theirs through a
// Derived() method) must never change its topology: mutation builds a new
// graph with an empty slot (WithEdges, WithoutEdges). A Derived
// must not be copied after first use.
type Derived struct {
	once sync.Once
	v    any
}

// Get returns the slot's value, calling build to fill it on first use.
// Concurrent callers wait for that one build and all receive its result.
func (d *Derived) Get(build func() any) any {
	d.once.Do(func() { d.v = build() })
	return d.v
}

// View is the narrow graph-access interface the engine stack runs over.
// Two implementations exist: the heap-resident CSR+CSC *Graph and the
// mmap'd compressed on-disk store.Graph, so the same superstep engine,
// guidance generator and partitioner work whether the graph lives in RAM
// or in a mapped file.
//
// Concurrency contract:
//
//   - NumVertices, NumEdges, OutDegree and InDegree are safe for
//     concurrent use (they read the offset index, never adjacency data).
//   - The adjacency methods on the View itself are single-goroutine: a
//     disk-backed graph serves them through one internal decoder. Code
//     that scans adjacency from multiple threads must take one Cursor per
//     thread via Cursor() and read through it.
//   - Slices returned by adjacency methods alias decoder scratch (or the
//     graph's storage): they are valid until the next adjacency call on
//     the same View/Cursor and must not be modified.
//
// Order contract: every out- and in-list ascends by neighbour id, parallel
// edges adjacent. Build sorts each list, WithEdges merges a batch into the
// sorted lists, and SLFC stores each list as gaps, whose prefix sums
// ascend. Push supersteps rely on it: they binary-search each out-list for
// the destinations a rank owns. A corrupt .slfc can decode to a list that
// does not ascend, but its ids stay in [0, n), so a reader stays
// memory-safe and only its results are wrong.
type View interface {
	NumVertices() int
	NumEdges() int64
	OutDegree(v VertexID) int64
	InDegree(v VertexID) int64

	OutNeighbors(v VertexID) []VertexID
	OutWeights(v VertexID) []float32
	InNeighbors(v VertexID) []VertexID
	InWeights(v VertexID) []float32

	// Cursor returns an independent adjacency reader. Cursors are cheap
	// for heap graphs (the graph itself) and hold one block-decode
	// scratch set for disk-backed graphs; each cursor is single-goroutine.
	Cursor() Cursor
}

// Cursor is a thread-local adjacency reader over a View. See View's
// concurrency contract for slice lifetime and its order contract: the
// lists a Cursor returns ascend.
type Cursor interface {
	OutNeighbors(v VertexID) []VertexID
	OutWeights(v VertexID) []float32
	InNeighbors(v VertexID) []VertexID
	InWeights(v VertexID) []float32
}

// Cursor implements View: the heap graph's adjacency slices alias
// immutable storage, so the graph is its own (free, shareable) cursor.
func (g *Graph) Cursor() Cursor { return g }

var (
	_ View   = (*Graph)(nil)
	_ Cursor = (*Graph)(nil)
)

// CollectEdges appends every edge of v to dst and returns it, in
// (src, ascending dst) order — the View counterpart of Graph.Edges, used
// to materialise a heap graph from a disk-backed one (symmetrisation,
// format conversion).
func CollectEdges(v View, dst []Edge) []Edge {
	cur := v.Cursor()
	n := v.NumVertices()
	for s := 0; s < n; s++ {
		src := VertexID(s)
		ns, ws := cur.OutNeighbors(src), cur.OutWeights(src)
		for i := range ns {
			dst = append(dst, Edge{Src: src, Dst: ns[i], Weight: ws[i]})
		}
	}
	return dst
}

// Materialize builds a heap CSR+CSC Graph from any View (identity for a
// *Graph already on the heap).
func Materialize(v View) (*Graph, error) {
	if g, ok := v.(*Graph); ok {
		return g, nil
	}
	edges := CollectEdges(v, make([]Edge, 0, v.NumEdges()))
	return Build(v.NumVertices(), edges)
}

// AdjSortKey packs a neighbour id and edge weight into a uint64 whose
// unsigned order is (id, then weight) order — the same key Build uses to
// sort adjacency. Exported so external builders (internal/store) produce
// bit-identical adjacency ordering without materialising a heap graph.
func AdjSortKey(id VertexID, w float32) uint64 {
	return uint64(id)<<32 | uint64(orderedWeightBits(w))
}

// AdjSortKeyDecode inverts AdjSortKey, recovering the id and the
// bit-exact weight.
func AdjSortKeyDecode(k uint64) (VertexID, float32) {
	return VertexID(k >> 32), weightFromOrderedBits(uint32(k))
}
