package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func assertValues(t *testing.T, got, want []core.Value, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range want {
		if !almostEqual(got[v], want[v], tol) {
			t.Fatalf("%s: vertex %d: got %v, want %v", label, v, got[v], want[v])
		}
	}
}

// figure1 returns the worked SSSP example of the paper (Figure 1) with its
// published weights.
func figure1() *graph.Graph {
	return graph.MustBuild(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 3, Weight: 2},
		{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 4, Weight: 1},
		{Src: 3, Dst: 4, Weight: 2}, {Src: 4, Dst: 5, Weight: 1},
	})
}

func TestSSSPFigure1(t *testing.T) {
	g := figure1()
	want := []core.Value{0, 1, 2, 2, 3, 4} // Figure 1b, final column
	for _, rr := range []bool{false, true} {
		for _, nodes := range []int{1, 2, 3} {
			res, err := cluster.Execute(g, SSSP(0), cluster.Options{Nodes: nodes, RR: rr, Threads: 2})
			if err != nil {
				t.Fatalf("rr=%v nodes=%d: %v", rr, nodes, err)
			}
			assertValues(t, res.Result.Values, want, 0, "figure1")
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 32, 5)
	want := RefSSSP(g, 0)
	for _, rr := range []bool{false, true} {
		for _, nodes := range []int{1, 4} {
			res, err := cluster.Execute(g, SSSP(0), cluster.Options{Nodes: nodes, RR: rr})
			if err != nil {
				t.Fatal(err)
			}
			assertValues(t, res.Result.Values, want, 1e-9, "sssp")
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 6)
	want := RefBFS(g, 0)
	res, err := cluster.Execute(g, BFS(0), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	assertValues(t, res.Result.Values, want, 0, "bfs")
}

func TestWPMatchesReference(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 64, 7)
	want := RefWP(g, 0)
	for _, rr := range []bool{false, true} {
		res, err := cluster.Execute(g, WP(0), cluster.Options{Nodes: 3, RR: rr})
		if err != nil {
			t.Fatal(err)
		}
		assertValues(t, res.Result.Values, want, 1e-9, "wp")
	}
}

func TestCCMatchesUnionFind(t *testing.T) {
	g := gen.Clustered(600, 5, 3, 11)
	want := RefCC(g)
	sym := Symmetrize(g)
	for _, rr := range []bool{false, true} {
		res, err := cluster.Execute(sym, CC(sym), cluster.Options{Nodes: 4, RR: rr})
		if err != nil {
			t.Fatal(err)
		}
		assertValues(t, res.Result.Values, want, 0, "cc")
	}
}

func TestCCDisconnected(t *testing.T) {
	// Two disjoint paths and an isolated vertex.
	g := graph.MustBuild(7, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
	})
	sym := Symmetrize(g)
	res, err := cluster.Execute(sym, CC(sym), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Value{0, 0, 0, 3, 3, 3, 6}
	assertValues(t, res.Result.Values, want, 0, "cc-disconnected")
}

func TestPageRankMatchesReference(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 8)
	const iters = 30
	want := RefPageRank(g, iters)
	res, err := cluster.Execute(g, PageRank(iters), cluster.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := PageRankScores(g, res.Result.Values)
	assertValues(t, got, want, 1e-9, "pagerank")
}

func TestPageRankRRCloseToExact(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 9)
	const iters = 60
	exact, err := cluster.Execute(g, PageRank(iters), cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := cluster.Execute(g, PageRank(iters), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	// "Finish early" freezes vertices whose value stopped changing, so the
	// result must agree with the exact run to high precision.
	a := PageRankScores(g, exact.Result.Values)
	b := PageRankScores(g, rr.Result.Values)
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-4*(1+math.Abs(a[v])) {
			t.Fatalf("vertex %d: exact %v vs RR %v", v, a[v], b[v])
		}
	}
	if rr.Result.Metrics.Suppressed() == 0 {
		t.Error("RR PageRank suppressed no computations")
	}
}

func TestTunkRankRuns(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 1, 10)
	res, err := cluster.Execute(g, TunkRank(25), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	scores := TunkRankScores(g, res.Result.Values)
	// Influence must be non-negative and someone must be influential.
	var max core.Value
	for _, s := range scores {
		if s < 0 {
			t.Fatal("negative influence")
		}
		if s > max {
			max = s
		}
	}
	if max == 0 {
		t.Fatal("all influence zero")
	}
}

func TestNumPathsOnDAG(t *testing.T) {
	// Diamond DAG: 0->1, 0->2, 1->3, 2->3 gives 2 paths to vertex 3.
	g := graph.MustBuild(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	})
	res, err := cluster.Execute(g, NumPaths(0, 10), cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Value{1, 1, 1, 2}
	assertValues(t, res.Result.Values, want, 0, "numpaths")
}

func TestSpMVMatchesReference(t *testing.T) {
	g := gen.Uniform(300, 1800, 8, 12)
	for _, iters := range []int{1, 3} {
		want := RefSpMV(g, iters)
		res, err := cluster.Execute(g, SpMV(iters), cluster.Options{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertValues(t, res.Result.Values, want, 1e-6, "spmv")
	}
}

func TestHeatSimulation(t *testing.T) {
	g := Symmetrize(gen.Grid(8, 8, 1, 1))
	hot := []graph.VertexID{0}
	res, err := cluster.Execute(g, HeatSimulation(hot, 50), cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	vals := res.Result.Values
	if vals[0] != 100 {
		t.Fatalf("hot vertex cooled to %v", vals[0])
	}
	// Heat decreases with distance from the source.
	if !(vals[1] > vals[2*8+2]) || vals[63] <= 0 {
		t.Fatalf("heat did not diffuse sensibly: near=%v far=%v corner=%v", vals[1], vals[18], vals[63])
	}
}

func TestApproxDiameter(t *testing.T) {
	g := gen.Path(12)
	d, err := ApproxDiameter(g, []graph.VertexID{0}, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Fatalf("diameter = %d, want 11", d)
	}
}

func TestRegistryTable1(t *testing.T) {
	if len(Registry) != 13 {
		t.Fatalf("registry has %d entries, want 13 (Table 1)", len(Registry))
	}
	evaluated := 0
	for _, e := range Registry {
		if e.Evaluated {
			evaluated++
			if !e.Implemented {
				t.Errorf("%s is evaluated but not implemented", e.Name)
			}
		}
	}
	if evaluated != 5 {
		t.Errorf("%d evaluated applications, want 5", evaluated)
	}
	agg := map[string]core.AggKind{}
	for _, e := range Registry {
		agg[e.Name] = e.Agg
	}
	for name, want := range map[string]core.AggKind{"PageRank": core.Arith, "WidestPath": core.MinMax} {
		if got, ok := agg[name]; !ok || got != want {
			t.Errorf("%s: registered %v (%v), want %v", name, got, ok, want)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 5}})
	s := Symmetrize(g)
	if s.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", s.NumEdges())
	}
	if s.OutDegree(1) != 1 || s.OutNeighbors(1)[0] != 0 || s.OutWeights(1)[0] != 5 {
		t.Fatal("mirror edge missing or wrong")
	}
}

// Property: SSSP with RR on random graphs equals Dijkstra, across node
// counts — the paper's Theorem 1 (delayed computation converges to the
// original output).
func TestQuickSSSPCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(250) + 2
		m := int64(rng.Intn(4*n) + n)
		g := gen.Uniform(n, m, 16, seed)
		root := graph.VertexID(rng.Intn(n))
		want := RefSSSP(g, root)
		nodes := rng.Intn(4) + 1
		res, err := cluster.Execute(g, SSSP(root), cluster.Options{Nodes: nodes, RR: true})
		if err != nil {
			return false
		}
		for v := range want {
			if !almostEqual(res.Result.Values[v], want[v], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: RR never changes CC labels.
func TestQuickCCRRInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		g := Symmetrize(gen.Uniform(n, int64(rng.Intn(3*n)), 1, seed))
		want := RefCC(g)
		res, err := cluster.Execute(g, CC(g), cluster.Options{Nodes: rng.Intn(3) + 1, RR: true})
		if err != nil {
			return false
		}
		for v := range want {
			if res.Result.Values[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: widest path with RR equals the reference.
func TestQuickWPCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		g := gen.Uniform(n, int64(rng.Intn(4*n)), 32, seed)
		root := graph.VertexID(rng.Intn(n))
		want := RefWP(g, root)
		res, err := cluster.Execute(g, WP(root), cluster.Options{Nodes: rng.Intn(3) + 1, RR: true})
		if err != nil {
			return false
		}
		for v := range want {
			if !almostEqual(res.Result.Values[v], want[v], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
