// Distributed analytics completing Table 1 of the paper: TriangleCounting
// and BeliefPropagation (arithmetic class), MinimalSpanningTree and Clique
// (comparison class), plus the k-core decomposition Clique builds on.
//
// BeliefPropagation fits the engine's declarative Program form.
// TriangleCounting, MST and Clique do not decompose into a single
// aggregation over in-edges, so they are implemented as SPMD algorithms on
// the same substrates the engine uses — chunked vertex ownership
// (internal/partition), intra-node work stealing (internal/ws) and the
// comm collectives — and exchange exactly the data a multi-node run would.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/ws"
)

// BeliefCoupling is the default edge coupling strength of BeliefPropagation.
const BeliefCoupling = 0.3

// BeliefPropagation is a mean-field (log-odds) variant of loopy belief
// propagation on a pairwise binary Markov random field: each vertex holds a
// log-odds belief b(v), seeded by prior, and repeatedly absorbs evidence
// from its in-neighbours,
//
//	b'(v) = prior(v) + coupling * sum over in-edges (u,v,w) of w*tanh(b(u)).
//
// tanh maps a neighbour's log-odds to its expected spin, so the update is
// the standard naive-mean-field fixed-point iteration. Like PageRank it is
// an arithmetic-aggregation program, and "finish early" bypasses vertices
// whose beliefs have stabilised.
//
// Set the returned program's Roots to the evidence vertices (the support of
// prior): unlike PageRank, where every vertex is informative from iteration
// 0, BP's information originates only at evidence vertices, so a
// redundancy-reduction run must measure lastIter from them — otherwise a
// vertex that is transiently stable before evidence arrives would be
// frozen too early.
func BeliefPropagation(prior func(g graph.View, v graph.VertexID) core.Value, coupling float64, iters int) *core.Program[float64] {
	if prior == nil {
		prior = func(_ graph.View, _ graph.VertexID) core.Value { return 0 }
	}
	if coupling == 0 {
		coupling = BeliefCoupling
	}
	return &core.Program[float64]{
		Name:       "BP",
		Agg:        core.Arith,
		InitValue:  prior,
		GatherInit: 0,
		Gather: func(acc core.Value, src core.Value, w float32) core.Value {
			return acc + float64(w)*math.Tanh(src)
		},
		Apply: func(g graph.View, v graph.VertexID, acc, _ core.Value) core.Value {
			return prior(g, v) + coupling*acc
		},
		MaxIters:  iters,
		StableEps: 1e-9,
	}
}

// simpleUndirected builds the deduplicated, self-loop-free undirected
// adjacency of g in CSR form. Triangle counting and core decomposition are
// defined on this simple view; the paper's directed inputs are symmetrised
// the same way before such analyses.
func simpleUndirected(g graph.View) (off []int64, adj []graph.VertexID) {
	n := g.NumVertices()
	off = make([]int64, n+1)
	scratch := make([]graph.VertexID, 0, 64)
	// Two passes: count then fill, deduplicating the merged out+in lists.
	lists := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		scratch = scratch[:0]
		scratch = append(scratch, g.OutNeighbors(id)...)
		scratch = append(scratch, g.InNeighbors(id)...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		uniq := make([]graph.VertexID, 0, len(scratch))
		for i, u := range scratch {
			if u == id {
				continue // self-loop
			}
			if i > 0 && u == scratch[i-1] {
				continue // parallel edge
			}
			uniq = append(uniq, u)
		}
		lists[v] = uniq
		off[v+1] = off[v] + int64(len(uniq))
	}
	adj = make([]graph.VertexID, off[n])
	for v := 0; v < n; v++ {
		copy(adj[off[v]:off[v+1]], lists[v])
	}
	return off, adj
}

// TriangleStats reports the outcome of TriangleCount.
type TriangleStats struct {
	// Triangles is the number of distinct triangles in the simple
	// undirected view of the graph.
	Triangles int64
	// Comm aggregates the bytes exchanged by the reduction.
	Comm comm.Stats
}

// TriangleCount counts triangles with the standard degree-ordered
// adjacency-intersection algorithm: edges are oriented from the
// (degree, id)-smaller endpoint to the larger, so each triangle is counted
// exactly once, at its smallest vertex. Vertices are partitioned across
// opt.Nodes workers by out-edge volume and each worker intersects the
// forward lists of its owned vertices in parallel; a final AllReduce sums
// the per-worker counts.
func TriangleCount(g graph.View, opt cluster.Options) (*TriangleStats, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	off, adj := simpleUndirected(g)
	n := g.NumVertices()

	// rank(v) = (deg(v), v); forward neighbours are the higher-ranked ones.
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = off[v+1] - off[v]
	}
	higher := func(u, v graph.VertexID) bool {
		if deg[u] != deg[v] {
			return deg[u] > deg[v]
		}
		return u > v
	}
	fwdOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		var c int64
		for _, u := range adj[off[v]:off[v+1]] {
			if higher(u, id) {
				c++
			}
		}
		fwdOff[v+1] = fwdOff[v] + c
	}
	fwd := make([]graph.VertexID, fwdOff[n])
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		p := fwdOff[v]
		for _, u := range adj[off[v]:off[v+1]] {
			if higher(u, id) {
				fwd[p] = u
				p++
			}
		}
	}

	part, err := partition.NewChunkedUniform(n, opt.Nodes)
	if err != nil {
		return nil, err
	}
	stats := &TriangleStats{}
	err = cluster.SPMD(opt.Nodes, func(rank int, cm *comm.Comm) error {
		lo, hi := part.Range(rank)
		sched := ws.New(opt.Threads, opt.Stealing)
		defer sched.Close()
		var local int64
		sched.Run(lo, hi, func(chunkLo, chunkHi uint32, _ int) {
			var c int64
			for v := chunkLo; v < chunkHi; v++ {
				a := fwd[fwdOff[v]:fwdOff[v+1]]
				for _, u := range a {
					c += intersectCount(a, fwd[fwdOff[u]:fwdOff[u+1]])
				}
			}
			atomic.AddInt64(&local, c)
		})
		total, err := cm.AllReduceI64(local, comm.OpSum)
		if err != nil {
			return err
		}
		if rank == 0 {
			stats.Triangles = total
			stats.Comm = cm.T.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// intersectCount returns |a ∩ b| for two ascending-sorted ID slices.
func intersectCount(a, b []graph.VertexID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// KCore computes the core number of every vertex on the simple undirected
// view of g using the h-index fixed point of Lü et al.: starting from
// c(v) = deg(v), repeatedly set c(v) to the h-index of its neighbours'
// values until no vertex changes. The fixed point is exactly the coreness.
// Owned ranges iterate in parallel; changed values are exchanged with an
// AllGather per round, mirroring the engine's delta synchronisation.
func KCore(g graph.View, opt cluster.Options) ([]uint32, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	off, adj := simpleUndirected(g)
	n := g.NumVertices()
	part, err := partition.NewChunkedUniform(n, opt.Nodes)
	if err != nil {
		return nil, err
	}

	result := make([]uint32, n)
	err = cluster.SPMD(opt.Nodes, func(rank int, cm *comm.Comm) error {
		// Each rank holds its own replica of the core estimates, as a real
		// distributed-memory run would; deltas keep the replicas identical.
		cores := make([]uint32, n)
		for v := 0; v < n; v++ {
			cores[v] = uint32(off[v+1] - off[v])
		}
		lo, hi := part.Range(rank)
		sched := ws.New(opt.Threads, opt.Stealing)
		defer sched.Close()
		type delta struct {
			v graph.VertexID
			h uint32
		}
		for {
			// Compute h-indices for owned vertices against the replica;
			// updates are staged so the round stays synchronous (Jacobi).
			var pending []delta
			deltaCh := make(chan []delta, 64)
			done := make(chan struct{})
			go func() {
				for ds := range deltaCh {
					pending = append(pending, ds...)
				}
				close(done)
			}()
			sched.Run(lo, hi, func(chunkLo, chunkHi uint32, _ int) {
				var ds []delta
				for v := chunkLo; v < chunkHi; v++ {
					h := hIndex(cores, adj[off[v]:off[v+1]])
					if h != cores[v] {
						ds = append(ds, delta{v: v, h: h})
					}
				}
				if len(ds) > 0 {
					deltaCh <- ds
				}
			})
			close(deltaCh)
			<-done

			// Exchange deltas; every rank applies the same updates.
			blob := make([]byte, 0, 8*len(pending))
			var tmp [8]byte
			for _, d := range pending {
				binary.LittleEndian.PutUint32(tmp[0:4], d.v)
				binary.LittleEndian.PutUint32(tmp[4:8], d.h)
				blob = append(blob, tmp[:]...)
			}
			blobs, err := cm.AllGather(blob)
			if err != nil {
				return err
			}
			var total int64
			for _, b := range blobs {
				if len(b)%8 != 0 {
					return fmt.Errorf("apps: kcore delta blob length %d not a multiple of 8", len(b))
				}
				for i := 0; i < len(b); i += 8 {
					v := binary.LittleEndian.Uint32(b[i : i+4])
					cores[v] = binary.LittleEndian.Uint32(b[i+4 : i+8])
					total++
				}
			}
			if total == 0 {
				break
			}
		}
		if rank == 0 {
			copy(result, cores)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// hIndex returns the largest h such that at least h entries of vals[ids]
// are >= h. Counting is bounded by len(ids), so the scan is linear.
func hIndex(vals []uint32, ids []graph.VertexID) uint32 {
	d := len(ids)
	if d == 0 {
		return 0
	}
	counts := make([]int, d+1)
	for _, u := range ids {
		c := int(vals[u])
		if c > d {
			c = d
		}
		counts[c]++
	}
	sum := 0
	for h := d; h >= 0; h-- {
		sum += counts[h]
		if sum >= h {
			return uint32(h)
		}
	}
	return 0
}

// Clique is the result of MaxCliqueApprox.
type Clique struct {
	// Members are the clique's vertices in ascending order.
	Members []graph.VertexID
	// CoreBound is the k-core upper bound on the maximum clique size
	// (max coreness + 1); Members is within [lower, CoreBound].
	CoreBound int
}

// MaxCliqueApprox finds a large clique with the classic core-ordered greedy
// heuristic: vertices are ranked by coreness (descending), each worker grows
// greedy cliques from a disjoint subset of the top seeds, and the largest
// clique found wins. The k-core bound certifies the gap: a clique of size k
// needs vertices of coreness >= k-1, so max coreness + 1 bounds the optimum.
func MaxCliqueApprox(g graph.View, seeds int, opt cluster.Options) (*Clique, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	if seeds <= 0 {
		seeds = 32
	}
	cores, err := KCore(g, cluster.Options{Nodes: opt.Nodes, Threads: opt.Threads, Stealing: opt.Stealing})
	if err != nil {
		return nil, err
	}
	off, adj := simpleUndirected(g)
	n := g.NumVertices()
	if n == 0 {
		return &Clique{CoreBound: 0}, nil
	}
	order := make([]graph.VertexID, n)
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if cores[a] != cores[b] {
			return cores[a] > cores[b]
		}
		da, db := off[a+1]-off[a], off[b+1]-off[b]
		if da != db {
			return da > db
		}
		return a < b
	})
	if seeds > n {
		seeds = n
	}
	maxCore := uint32(0)
	for _, c := range cores {
		if c > maxCore {
			maxCore = c
		}
	}

	adjacent := func(a, b graph.VertexID) bool {
		s := adj[off[a]:off[a+1]]
		i := sort.Search(len(s), func(i int) bool { return s[i] >= b })
		return i < len(s) && s[i] == b
	}
	grow := func(seed graph.VertexID) []graph.VertexID {
		members := []graph.VertexID{seed}
		// Extend in core order; candidates must connect to all members.
		// A vertex of coreness c cannot sit in a clique larger than c+1,
		// which prunes low-core candidates once the clique has grown.
	cand:
		for _, u := range order {
			if u == seed || int(cores[u]) < len(members) {
				continue
			}
			for _, m := range members {
				if !adjacent(u, m) {
					continue cand
				}
			}
			members = append(members, u)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		return members
	}

	best := &Clique{CoreBound: int(maxCore) + 1}
	err = cluster.SPMD(opt.Nodes, func(rank int, cm *comm.Comm) error {
		var localBest []graph.VertexID
		for s := rank; s < seeds; s += cm.Size() {
			if c := grow(order[s]); len(c) > len(localBest) {
				localBest = c
			}
		}
		blob := make([]byte, 4*len(localBest))
		for i, v := range localBest {
			binary.LittleEndian.PutUint32(blob[4*i:], v)
		}
		blobs, err := cm.AllGather(blob)
		if err != nil {
			return err
		}
		if rank != 0 {
			return nil
		}
		for _, b := range blobs {
			if len(b)/4 <= len(best.Members) {
				continue
			}
			members := make([]graph.VertexID, len(b)/4)
			for i := range members {
				members[i] = binary.LittleEndian.Uint32(b[4*i:])
			}
			best.Members = members
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}

// Forest is a minimum spanning forest produced by MST.
type Forest struct {
	// Edges are the chosen undirected edges (Src < Dst normalised).
	Edges []graph.Edge
	// Weight is the total forest weight.
	Weight float64
	// Rounds is the number of Borůvka rounds executed.
	Rounds int
}

// MST computes a minimum spanning forest of the undirected view of g with
// distributed Borůvka: every round each worker scans the edges incident to
// its owned vertices for the lightest edge leaving each component, the
// per-worker candidates are AllGathered and merged with a deterministic
// tie-break (weight, then src, then dst), and every worker applies the same
// merge list to its replica of the union-find, guaranteeing identical
// component state without a coordinator. Rounds are O(log n).
func MST(g graph.View, opt cluster.Options) (*Forest, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	n := g.NumVertices()
	part, err := partition.NewChunkedUniform(n, opt.Nodes)
	if err != nil {
		return nil, err
	}
	forest := &Forest{}
	err = cluster.SPMD(opt.Nodes, func(rank int, cm *comm.Comm) error {
		uf := newUnionFind(n)
		cur := g.Cursor() // ranks run concurrently in-process: one adjacency reader each
		lo, hi := part.Range(rank)
		rounds := 0
		var localEdges []graph.Edge
		var localWeight float64
		for {
			rounds++
			// Lightest outgoing edge per component, over owned vertices'
			// incident edges (out-edges plus in-edges = undirected view).
			best := make(map[graph.VertexID]graph.Edge)
			consider := func(a, b graph.VertexID, w float32) {
				ca, cb := uf.find(a), uf.find(b)
				if ca == cb {
					return
				}
				e := normEdge(a, b, w)
				if cur, ok := best[ca]; !ok || edgeLess(e, cur) {
					best[ca] = e
				}
			}
			for v := lo; v < hi; v++ {
				outs := cur.OutNeighbors(v)
				ws := cur.OutWeights(v)
				for i, u := range outs {
					consider(v, u, ws[i])
				}
				ins := cur.InNeighbors(v)
				iw := cur.InWeights(v)
				for i, u := range ins {
					consider(v, u, iw[i])
				}
			}

			// Exchange candidates and merge deterministically.
			blob := make([]byte, 0, 16*len(best))
			for c, e := range best {
				blob = appendCandidate(blob, c, e)
			}
			blobs, err := cm.AllGather(blob)
			if err != nil {
				return err
			}
			global := make(map[graph.VertexID]graph.Edge)
			for _, b := range blobs {
				if len(b)%16 != 0 {
					return fmt.Errorf("apps: mst candidate blob length %d not a multiple of 16", len(b))
				}
				for i := 0; i < len(b); i += 16 {
					c, e := decodeCandidate(b[i:])
					if cur, ok := global[c]; !ok || edgeLess(e, cur) {
						global[c] = e
					}
				}
			}
			if len(global) == 0 {
				break
			}
			comps := comps2slice(global)
			merged := 0
			for _, c := range comps {
				e := global[c]
				if uf.union(e.Src, e.Dst) {
					merged++
					// Rank 0 records the forest; every rank applies unions.
					if rank == 0 {
						localEdges = append(localEdges, e)
						localWeight += float64(e.Weight)
					}
				}
			}
			if merged == 0 {
				break
			}
		}
		if rank == 0 {
			forest.Edges = localEdges
			forest.Weight = localWeight
			forest.Rounds = rounds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return forest, nil
}

// comps2slice returns the component keys in ascending order so every
// replica applies unions in the same sequence.
func comps2slice(m map[graph.VertexID]graph.Edge) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func normEdge(a, b graph.VertexID, w float32) graph.Edge {
	if a > b {
		a, b = b, a
	}
	return graph.Edge{Src: a, Dst: b, Weight: w}
}

// edgeLess orders candidate edges by (weight, src, dst) so that merges are
// deterministic across replicas and runs.
func edgeLess(a, b graph.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

func appendCandidate(blob []byte, c graph.VertexID, e graph.Edge) []byte {
	var tmp [16]byte
	binary.LittleEndian.PutUint32(tmp[0:4], c)
	binary.LittleEndian.PutUint32(tmp[4:8], e.Src)
	binary.LittleEndian.PutUint32(tmp[8:12], e.Dst)
	binary.LittleEndian.PutUint32(tmp[12:16], math.Float32bits(e.Weight))
	return append(blob, tmp[:]...)
}

func decodeCandidate(b []byte) (graph.VertexID, graph.Edge) {
	return binary.LittleEndian.Uint32(b[0:4]), graph.Edge{
		Src:    binary.LittleEndian.Uint32(b[4:8]),
		Dst:    binary.LittleEndian.Uint32(b[8:12]),
		Weight: math.Float32frombits(binary.LittleEndian.Uint32(b[12:16])),
	}
}

// unionFind is a deterministic union-find with path halving and union by
// smaller root ID (not by rank): picking the smaller root keeps replicas
// identical regardless of operation interleaving within a round.
type unionFind struct {
	parent []graph.VertexID
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]graph.VertexID, n)}
	for i := range uf.parent {
		uf.parent[i] = graph.VertexID(i)
	}
	return uf
}

func (uf *unionFind) find(v graph.VertexID) graph.VertexID {
	for uf.parent[v] != v {
		uf.parent[v] = uf.parent[uf.parent[v]]
		v = uf.parent[v]
	}
	return v
}

func (uf *unionFind) union(a, b graph.VertexID) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	return true
}
