package apps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// triangleFixture is K4 plus a pendant vertex: 4 triangles.
func triangleFixture() *graph.Graph {
	return graph.MustBuild(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 4},
	})
}

func TestTriangleCountK4(t *testing.T) {
	g := triangleFixture()
	for _, nodes := range []int{1, 2, 4} {
		st, err := TriangleCount(g, cluster.Options{Nodes: nodes, Threads: 2, Stealing: true})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if st.Triangles != 4 {
			t.Fatalf("nodes=%d: got %d triangles, want 4", nodes, st.Triangles)
		}
	}
}

func TestTriangleCountIgnoresDirectionLoopsAndParallels(t *testing.T) {
	// A triangle written with mixed directions, a self-loop and a
	// duplicated edge still counts once.
	g := graph.MustBuild(3, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, // parallel in both directions
		{Src: 2, Dst: 1},
		{Src: 0, Dst: 2},
		{Src: 2, Dst: 2}, // self-loop
	})
	st, err := TriangleCount(g, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Triangles != 1 {
		t.Fatalf("got %d triangles, want 1", st.Triangles)
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 11)
	want := RefTriangleCount(g)
	if want == 0 {
		t.Fatal("fixture produced no triangles; pick another seed")
	}
	for _, nodes := range []int{1, 3} {
		st, err := TriangleCount(g, cluster.Options{Nodes: nodes, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Triangles != want {
			t.Fatalf("nodes=%d: got %d, want %d", nodes, st.Triangles, want)
		}
	}
}

func TestTriangleCountEmptyAndEdgeless(t *testing.T) {
	empty := graph.MustBuild(0, nil)
	st, err := TriangleCount(empty, cluster.Options{Nodes: 2})
	if err != nil || st.Triangles != 0 {
		t.Fatalf("empty graph: %v, %+v", err, st)
	}
	edgeless := graph.MustBuild(10, nil)
	st, err = TriangleCount(edgeless, cluster.Options{Nodes: 2})
	if err != nil || st.Triangles != 0 {
		t.Fatalf("edgeless graph: %v, %+v", err, st)
	}
}

func TestTriangleCountProperty(t *testing.T) {
	// Distributed count equals the wedge-enumeration reference on random
	// graphs, for any worker count.
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		m := int64(rng.Intn(6 * n))
		g := gen.Uniform(n, m, 1, seed)
		st, err := TriangleCount(g, cluster.Options{Nodes: nodes})
		if err != nil {
			return false
		}
		return st.Triangles == RefTriangleCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKCorePath(t *testing.T) {
	// A path has coreness 1 everywhere (singletons 0).
	g := gen.Path(10)
	cores, err := KCore(g, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cores {
		if c != 1 {
			t.Fatalf("vertex %d: coreness %d, want 1", v, c)
		}
	}
}

func TestKCoreCliquePlusTail(t *testing.T) {
	// K4 has coreness 3; the pendant vertex has coreness 1.
	g := triangleFixture()
	cores, err := KCore(g, cluster.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{3, 3, 3, 3, 1}
	for v := range want {
		if cores[v] != want[v] {
			t.Fatalf("vertex %d: coreness %d, want %d", v, cores[v], want[v])
		}
	}
}

func TestKCoreMatchesPeeling(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 7)
	want := RefKCore(g)
	for _, nodes := range []int{1, 4} {
		got, err := KCore(g, cluster.Options{Nodes: nodes, Threads: 2, Stealing: true})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("nodes=%d vertex %d: got %d, want %d", nodes, v, got[v], want[v])
			}
		}
	}
}

func TestKCoreProperty(t *testing.T) {
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(50)
		g := gen.Uniform(n, int64(rng.Intn(5*n)), 1, seed)
		got, err := KCore(g, cluster.Options{Nodes: nodes})
		if err != nil {
			return false
		}
		want := RefKCore(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCliqueApproxFindsK4(t *testing.T) {
	g := triangleFixture()
	cl, err := MaxCliqueApprox(g, 8, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Members) != 4 {
		t.Fatalf("got clique %v, want the K4", cl.Members)
	}
	if !IsClique(g, cl.Members) {
		t.Fatalf("members %v are not a clique", cl.Members)
	}
	if cl.CoreBound != 4 {
		t.Fatalf("core bound %d, want 4", cl.CoreBound)
	}
}

func TestMaxCliqueApproxAlwaysReturnsClique(t *testing.T) {
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := gen.Uniform(n, int64(rng.Intn(4*n)), 1, seed)
		cl, err := MaxCliqueApprox(g, 8, cluster.Options{Nodes: nodes})
		if err != nil {
			return false
		}
		if len(cl.Members) == 0 && n > 0 {
			return false
		}
		return IsClique(g, cl.Members) && len(cl.Members) <= cl.CoreBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCliqueApproxEmpty(t *testing.T) {
	cl, err := MaxCliqueApprox(graph.MustBuild(0, nil), 4, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Members) != 0 || cl.CoreBound != 0 {
		t.Fatalf("empty graph: %+v", cl)
	}
}

func TestMSTGridMatchesKruskal(t *testing.T) {
	g := gen.Grid(8, 8, 16, 3)
	want := RefMSTWeight(g)
	for _, nodes := range []int{1, 2, 4} {
		f, err := MST(g, cluster.Options{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(f.Weight, want, 1e-6) {
			t.Fatalf("nodes=%d: weight %v, want %v", nodes, f.Weight, want)
		}
		w, comps, acyclic := ForestWeight(g.NumVertices(), f.Edges)
		if !acyclic {
			t.Fatal("forest has a cycle")
		}
		if !almostEqual(w, f.Weight, 1e-6) {
			t.Fatalf("edge weights sum to %v, reported %v", w, f.Weight)
		}
		if comps != 1 {
			t.Fatalf("grid is connected; forest leaves %d components", comps)
		}
	}
}

func TestMSTForestOnDisconnectedGraph(t *testing.T) {
	// Two separate triangles: a spanning forest with 2 components and 4
	// edges.
	g := graph.MustBuild(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 0, Weight: 3},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 2}, {Src: 5, Dst: 3, Weight: 3},
	})
	f, err := MST(g, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Edges) != 4 {
		t.Fatalf("got %d forest edges, want 4", len(f.Edges))
	}
	if f.Weight != 6 { // 1+2 per triangle
		t.Fatalf("weight %v, want 6", f.Weight)
	}
	_, comps, _ := ForestWeight(6, f.Edges)
	if comps != 2 {
		t.Fatalf("components %d, want 2", comps)
	}
}

func TestMSTProperty(t *testing.T) {
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := gen.Uniform(n, int64(rng.Intn(4*n)), 64, seed)
		forest, err := MST(g, cluster.Options{Nodes: nodes})
		if err != nil {
			return false
		}
		if !almostEqual(forest.Weight, RefMSTWeight(g), 1e-4) {
			return false
		}
		_, _, acyclic := ForestWeight(n, forest.Edges)
		return acyclic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTDeterministicAcrossNodeCounts(t *testing.T) {
	g := gen.Uniform(200, 800, 32, 9)
	var first *Forest
	for _, nodes := range []int{1, 2, 5} {
		f, err := MST(g, cluster.Options{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = f
			continue
		}
		if len(f.Edges) != len(first.Edges) || f.Weight != first.Weight {
			t.Fatalf("nodes=%d: %d edges weight %v; first run %d edges weight %v",
				nodes, len(f.Edges), f.Weight, len(first.Edges), first.Weight)
		}
		for i := range f.Edges {
			if f.Edges[i] != first.Edges[i] {
				t.Fatalf("nodes=%d: edge %d differs: %+v vs %+v", nodes, i, f.Edges[i], first.Edges[i])
			}
		}
	}
}

func TestBeliefPropagationMatchesReference(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 4, 13)
	prior := func(_ graph.View, v graph.VertexID) core.Value {
		if v%17 == 0 {
			return 2.0 // observed "fraud" evidence
		}
		if v%23 == 0 {
			return -2.0 // observed "benign" evidence
		}
		return 0
	}
	const iters = 20
	want := RefBeliefPropagation(g, prior, BeliefCoupling, iters)
	// Evidence vertices are the information sources, hence the program's
	// Roots: RR guidance is rooted there so lastIter reflects when evidence
	// can last arrive (see the BeliefPropagation doc comment).
	bp := BeliefPropagation(prior, BeliefCoupling, iters)
	for v := 0; v < g.NumVertices(); v++ {
		if v%17 == 0 || v%23 == 0 {
			bp.Roots = append(bp.Roots, graph.VertexID(v))
		}
	}
	for _, rr := range []bool{false, true} {
		// Without RR the engine is exactly the synchronous iteration; with
		// RR, "finish early" freezes vertices once their value is stable to
		// within StableEps, so beliefs may lag the reference by a few ULP-
		// scale steps of the tail of convergence (§3.7: EC bypassing only
		// skips computations whose result would repeat).
		tol := 1e-9
		if rr {
			tol = 5e-3
		}
		for _, nodes := range []int{1, 3} {
			res, err := cluster.Execute(g, bp, cluster.Options{Nodes: nodes, RR: rr})
			if err != nil {
				t.Fatal(err)
			}
			assertValues(t, res.Result.Values, want, tol, "bp")
		}
	}
}

func TestBeliefPropagationNeutralGraphStaysNeutral(t *testing.T) {
	// With zero priors everywhere the fixed point is identically zero.
	g := gen.Uniform(100, 400, 4, 5)
	res, err := cluster.Execute(g, BeliefPropagation(nil, 0.25, 10), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range res.Result.Values {
		if b != 0 {
			t.Fatalf("vertex %d: belief %v, want 0", v, b)
		}
	}
}

func TestBeliefPropagationBounded(t *testing.T) {
	// tanh bounds each neighbour's vote by 1, so |belief| <= |prior| +
	// coupling * weighted in-degree.
	g := gen.Uniform(150, 600, 1, 21)
	prior := func(_ graph.View, v graph.VertexID) core.Value {
		return float64(int(v%5)) - 2
	}
	const coupling = 0.3
	res, err := cluster.Execute(g, BeliefPropagation(prior, coupling, 30), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range res.Result.Values {
		id := graph.VertexID(v)
		var wsum float64
		for _, w := range g.InWeights(id) {
			wsum += float64(w)
		}
		bound := 2 + coupling*wsum + 1e-9
		if b > bound || b < -bound {
			t.Fatalf("vertex %d: belief %v exceeds bound %v", v, b, bound)
		}
	}
}

func TestHIndex(t *testing.T) {
	vals := []uint32{5, 4, 3, 2, 1, 0}
	ids := []graph.VertexID{0, 1, 2, 3, 4, 5}
	if h := hIndex(vals, ids); h != 3 {
		t.Fatalf("h-index of 5,4,3,2,1,0 = %d, want 3", h)
	}
	if h := hIndex(vals, nil); h != 0 {
		t.Fatalf("empty h-index = %d, want 0", h)
	}
	if h := hIndex([]uint32{9}, []graph.VertexID{0}); h != 1 {
		t.Fatalf("single high value h-index = %d, want 1", h)
	}
}

func TestSimpleUndirectedDedups(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 1},
		{Src: 2, Dst: 0},
	})
	off, adj := simpleUndirected(g)
	want := [][]graph.VertexID{{1, 2}, {0}, {0}}
	for v := range want {
		got := adj[off[v]:off[v+1]]
		if len(got) != len(want[v]) {
			t.Fatalf("vertex %d: adjacency %v, want %v", v, got, want[v])
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("vertex %d: adjacency %v, want %v", v, got, want[v])
			}
		}
	}
}

func TestUnionFindDeterminism(t *testing.T) {
	a, b := newUnionFind(10), newUnionFind(10)
	pairs := [][2]graph.VertexID{{1, 2}, {3, 4}, {2, 3}, {8, 9}, {0, 9}}
	for _, p := range pairs {
		a.union(p[0], p[1])
	}
	// Same unions in a different order converge to the same roots because
	// union always keeps the smaller root.
	for i := len(pairs) - 1; i >= 0; i-- {
		b.union(pairs[i][0], pairs[i][1])
	}
	for v := graph.VertexID(0); v < 10; v++ {
		if a.find(v) != b.find(v) {
			t.Fatalf("vertex %d: roots %d vs %d", v, a.find(v), b.find(v))
		}
	}
}

func TestNumPathsMatchesReference(t *testing.T) {
	// A DAG where path counts are non-trivial: layered random edges.
	rng := rand.New(rand.NewSource(8))
	var edges []graph.Edge
	const layers, width = 6, 30
	n := layers * width
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for k := 0; k < 3; k++ {
				src := graph.VertexID(l*width + i)
				dst := graph.VertexID((l+1)*width + rng.Intn(width))
				edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
			}
		}
	}
	g := graph.MustBuild(n, edges)
	const iters = 8
	want := RefNumPaths(g, 0, iters)
	for _, nodes := range []int{1, 3} {
		res, err := cluster.Execute(g, NumPaths(0, iters), cluster.Options{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		assertValues(t, res.Result.Values, want, 0, "numpaths")
	}
}

func TestHeatSimulationMatchesManualIteration(t *testing.T) {
	g := gen.Uniform(120, 600, 1, 15)
	hot := []graph.VertexID{0, 7}
	const iters = 12
	res, err := cluster.Execute(g, HeatSimulation(hot, iters), cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Manual Jacobi iteration of the diffusion recurrence.
	n := g.NumVertices()
	cur := make([]core.Value, n)
	for _, h := range hot {
		cur[h] = 100
	}
	next := make([]core.Value, n)
	hotSet := map[graph.VertexID]bool{0: true, 7: true}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			id := graph.VertexID(v)
			if hotSet[id] {
				next[v] = cur[v]
				continue
			}
			d := g.InDegree(id)
			if d == 0 {
				next[v] = cur[v]
				continue
			}
			var acc core.Value
			for _, u := range g.InNeighbors(id) {
				acc += cur[u]
			}
			next[v] = (1-HeatAlpha)*cur[v] + HeatAlpha*acc/float64(d)
		}
		cur, next = next, cur
	}
	assertValues(t, res.Result.Values, cur, 1e-9, "heat")
}
