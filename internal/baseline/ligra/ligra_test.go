package ligra

import (
	"math"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func TestBFSMatchesReference(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 3)
	want := apps.RefBFS(g, 0)
	res, err := Execute(g, apps.BFS(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], want[v])
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 16, 5)
	want := apps.RefSSSP(g, 0)
	res, err := Execute(g, apps.SSSP(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], want[v])
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 1, 6)
	const iters = 20
	want := apps.RefPageRank(g, iters)
	res, err := Execute(g, apps.PageRank(iters), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := apps.PageRankScores(g, res.Values)
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > 1e-9 {
			t.Fatalf("vertex %d: got %v want %v", v, got[v], want[v])
		}
	}
}

func TestFrontierBasics(t *testing.T) {
	f := NewFrontier(100)
	if !f.Empty() || f.Size() != 0 {
		t.Fatal("fresh frontier not empty")
	}
	f.Add(3)
	f.Add(99)
	if f.Empty() || f.Size() != 2 || !f.Has(3) || f.Has(4) {
		t.Fatal("frontier membership wrong")
	}
}

func TestEdgeMapSparseVsDense(t *testing.T) {
	// A star: frontier {hub} has outEdges = n-1 > m/20 -> dense; a single
	// leaf -> sparse. Both directions must produce the same result.
	g := apps.Symmetrize(gen.Star(100))
	e := New(g, 1)
	visited := make([]bool, 100)
	fns := EdgeMapFuncs{
		TryUpdate: func(_, dst graph.VertexID, _ float32) bool {
			if visited[dst] {
				return false
			}
			visited[dst] = true
			return true
		},
	}
	f := NewFrontier(100)
	f.Add(0)
	next := e.EdgeMap(f, fns) // dense or sparse, hub reaches all leaves
	if next.Size() != 99 {
		t.Fatalf("hub EdgeMap reached %d vertices, want 99", next.Size())
	}
	if e.Comps == 0 {
		t.Fatal("no computations counted")
	}
}

func TestEdgeMapCond(t *testing.T) {
	g := gen.Star(10)
	e := New(g, 1)
	fns := EdgeMapFuncs{
		TryUpdate: func(_, _ graph.VertexID, _ float32) bool { return true },
		Cond:      func(dst graph.VertexID) bool { return dst%2 == 0 },
	}
	f := NewFrontier(10)
	f.Add(0)
	next := e.EdgeMap(f, fns)
	next.bits.Range(func(i int) bool {
		if i%2 != 0 {
			t.Fatalf("Cond failed to filter vertex %d", i)
		}
		return true
	})
}

func TestCCViaExecute(t *testing.T) {
	g := apps.Symmetrize(gen.Clustered(200, 3, 2, 9))
	want := apps.RefCC(g)
	res, err := Execute(g, apps.CC(g), 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], want[v])
		}
	}
}
