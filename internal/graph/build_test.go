package graph_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// adjacency is the six arrays of a built graph.
type adjacency struct {
	outOff, inOff []int64
	outDst, inSrc []graph.VertexID
	outW, inW     []float32
}

// referenceBuild is Build without the transpose: each direction is
// counting-sorted from the edge list and key-sorted on its own.
func referenceBuild(n int, edges []graph.Edge) adjacency {
	side := func(owner, other func(graph.Edge) graph.VertexID) ([]int64, []graph.VertexID, []float32) {
		off := make([]int64, n+1)
		for _, e := range edges {
			off[owner(e)+1]++
		}
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		keys := make([]uint64, len(edges))
		next := slices.Clone(off[:n])
		for _, e := range edges {
			keys[next[owner(e)]] = graph.AdjSortKey(other(e), e.Weight)
			next[owner(e)]++
		}
		ids, w := make([]graph.VertexID, len(edges)), make([]float32, len(edges))
		for v := 0; v < n; v++ {
			slices.Sort(keys[off[v]:off[v+1]])
		}
		for i, k := range keys {
			ids[i], w[i] = graph.AdjSortKeyDecode(k)
		}
		return off, ids, w
	}
	src := func(e graph.Edge) graph.VertexID { return e.Src }
	dst := func(e graph.Edge) graph.VertexID { return e.Dst }
	var a adjacency
	a.outOff, a.outDst, a.outW = side(src, dst)
	a.inOff, a.inSrc, a.inW = side(dst, src)
	return a
}

// adjacencyOf flattens g's six arrays back out of its accessors.
func adjacencyOf(g *graph.Graph) adjacency {
	a := adjacency{outOff: []int64{0}, inOff: []int64{0}}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		a.outDst = append(a.outDst, g.OutNeighbors(v)...)
		a.outW = append(a.outW, g.OutWeights(v)...)
		a.outOff = append(a.outOff, int64(len(a.outDst)))
		a.inSrc = append(a.inSrc, g.InNeighbors(v)...)
		a.inW = append(a.inW, g.InWeights(v)...)
		a.inOff = append(a.inOff, int64(len(a.inSrc)))
	}
	return a
}

// sameBits reports whether a and b hold the same arrays bit for bit
// (weights compared by their bits, so NaN payloads and ±0 count).
func sameBits(a, b adjacency) bool {
	bits := func(w []float32) []uint32 {
		out := make([]uint32, len(w))
		for i, x := range w {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	return slices.Equal(a.outOff, b.outOff) && slices.Equal(a.inOff, b.inOff) &&
		slices.Equal(a.outDst, b.outDst) && slices.Equal(a.inSrc, b.inSrc) &&
		slices.Equal(bits(a.outW), bits(b.outW)) && slices.Equal(bits(a.inW), bits(b.inW))
}

// Build sorts the CSR once and transposes it into the CSC; the result must
// equal, bit for bit, sorting both directions independently — and not
// depend on the order the edges arrive in.
func TestBuildMatchesReferenceSort(t *testing.T) {
	check := func(name string, n int, edges []graph.Edge) *graph.Graph {
		t.Helper()
		g, err := graph.Build(n, edges)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBits(adjacencyOf(g), referenceBuild(n, edges)) {
			t.Fatalf("%s: Build differs from the two-sort reference", name)
		}
		return g
	}

	// Weights whose order and bits are easy to get wrong: NaNs with
	// payloads and either sign, ±0, ±Inf and denormals.
	weights := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00001),
		math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, 2, -3.5, 64,
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		if trial < 2 {
			n = trial // n = 0 and n = 1
		}
		var edges []graph.Edge
		if n > 0 {
			// Endpoints from a small pool leave isolated vertices and give
			// self-loops and parallel edges with distinct weights.
			pool := 1 + rng.Intn(n)
			for i := rng.Intn(300); i > 0; i-- {
				edges = append(edges, graph.Edge{
					Src:    graph.VertexID(rng.Intn(pool)),
					Dst:    graph.VertexID(rng.Intn(pool)),
					Weight: weights[rng.Intn(len(weights))],
				})
			}
		}
		check("random", n, edges)
	}

	const n = 1 << 12
	var raw []graph.Edge
	if err := gen.RMATStream(n, 1<<15, gen.DefaultRMAT, 64, 29, func(s, d graph.VertexID, w float32) error {
		raw = append(raw, graph.Edge{Src: s, Dst: d, Weight: w})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g := check("rmat", n, raw)
	csr := g.Edges(nil)
	shuffled := slices.Clone(csr)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, edges := range map[string][]graph.Edge{"rmat csr order": csr, "rmat shuffled": shuffled} {
		if !sameBits(adjacencyOf(check(name, n, edges)), adjacencyOf(g)) {
			t.Fatalf("%s: edge order changed the graph", name)
		}
	}
}

// Build's counting sorts split the edges into parts; at any part count the
// arrays must be the two-sort reference's, bit for bit, and FromCSR over
// the same edges grouped by source (each group in shuffled order) must
// give them too.
func TestBuildBitIdenticalAcrossParts(t *testing.T) {
	// TestBuildMatchesReferenceSort's weights: NaNs with payloads and
	// either sign, ±0, ±Inf and denormals.
	trickyWeights := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00001),
		math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, 2, -3.5, 64,
	}
	defer graph.SetParts(graph.SetParts(0))
	rng := rand.New(rand.NewSource(50))
	edge := func(s, d int) graph.Edge {
		return graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), Weight: trickyWeights[rng.Intn(len(trickyWeights))]}
	}
	random := func(n, m int) []graph.Edge {
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = edge(rng.Intn(n), rng.Intn(n))
		}
		return edges
	}
	// A hub with 600 of 800 edges out and 300 in: its lists span several
	// parts of both the scatter and the transpose.
	hub := random(50, 100)
	for i := 0; i < 600; i++ {
		hub = append(hub, edge(7, rng.Intn(50)))
	}
	for i := 0; i < 300; i++ {
		hub = append(hub, edge(rng.Intn(50), 7))
	}
	rng.Shuffle(len(hub), func(i, j int) { hub[i], hub[j] = hub[j], hub[i] })
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"hub", 50, hub},
		{"n below parts", 2, random(2, 40)},
		{"one edge", 1, random(1, 1)},
		{"m = 0", 5, nil},
		{"n = 0", 0, nil},
		{"random", 300, random(300, 5000)},
		{"rmat", 1 << 10, rmatEdges(t, 1<<10, 1<<13)},
	}
	for _, parts := range []int{1, 2, 3, 8} {
		graph.SetParts(parts)
		for _, c := range cases {
			want := referenceBuild(c.n, c.edges)
			g, err := graph.Build(c.n, c.edges)
			if err != nil {
				t.Fatalf("%d parts, %s: %v", parts, c.name, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%d parts, %s: %v", parts, c.name, err)
			}
			if !sameBits(adjacencyOf(g), want) {
				t.Fatalf("%d parts, %s: Build differs from the two-sort reference", parts, c.name)
			}
			if g = fromShuffledCSR(rng, c.n, c.edges); !sameBits(adjacencyOf(g), want) {
				t.Fatalf("%d parts, %s: FromCSR differs from the two-sort reference", parts, c.name)
			}
		}
		if _, err := graph.Build(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 3}}); !errors.Is(err, graph.ErrVertexOutOfRange) {
			t.Fatalf("%d parts: Build of an out-of-range edge: %v", parts, err)
		}
	}
}

// fromShuffledCSR is FromCSR over edges grouped by source, each list in a
// random order.
func fromShuffledCSR(rng *rand.Rand, n int, edges []graph.Edge) *graph.Graph {
	grouped := slices.Clone(edges)
	rng.Shuffle(len(grouped), func(i, j int) { grouped[i], grouped[j] = grouped[j], grouped[i] })
	slices.SortStableFunc(grouped, func(a, b graph.Edge) int { return int(a.Src) - int(b.Src) })
	off := make([]int64, n+1)
	ids, w := make([]graph.VertexID, len(grouped)), make([]float32, len(grouped))
	for i, e := range grouped {
		off[e.Src+1]++
		ids[i], w[i] = e.Dst, e.Weight
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	return graph.FromCSR(n, off, ids, w)
}

// rmatEdges is a G-batch-shaped R-MAT edge list in generator order.
func rmatEdges(tb testing.TB, n int, m int64) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	if err := gen.RMATStream(n, m, gen.DefaultRMAT, 64, 1, func(s, d graph.VertexID, w float32) error {
		edges = append(edges, graph.Edge{Src: s, Dst: d, Weight: w})
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return edges
}

// BenchmarkBuild builds from edges in random order and from the same edges
// in CSR order, the order a .slfg file stores them in, at a small size and
// at G-batch's (2^17 vertices, 2^21 R-MAT edges, generator order first).
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := make([]graph.Edge, 100000)
	for i := range random {
		random[i] = graph.Edge{Src: graph.VertexID(rng.Intn(10000)), Dst: graph.VertexID(rng.Intn(10000)), Weight: float32(rng.Intn(64))}
	}
	rmat := rmatEdges(b, 1<<17, 1<<21)
	for _, in := range []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"random", 10000, random},
		{"csr-order", 10000, graph.MustBuild(10000, random).Edges(nil)},
		{"rmat-gen-order", 1 << 17, rmat},
		{"rmat-csr-order", 1 << 17, graph.MustBuild(1<<17, rmat).Edges(nil)},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := graph.Build(in.n, in.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
