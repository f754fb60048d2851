package rrg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// figure1Graph is the worked example from Figure 1 of the paper.
func figure1Graph() *graph.Graph {
	return graph.MustBuild(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 3, Weight: 2},
		{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 4, Weight: 1},
		{Src: 3, Dst: 4, Weight: 2}, {Src: 4, Dst: 5, Weight: 1},
	})
}

func TestFigure1Guidance(t *testing.T) {
	g := figure1Graph()
	gd := Generate(g, []graph.VertexID{0}, nil)
	// BFS levels from 0: v0=0 v1=1 v3=1 v2=2 v4=2 v5=3.
	wantLevel := []uint32{0, 1, 2, 1, 2, 3}
	for v, want := range wantLevel {
		if gd.Level[v] != want {
			t.Errorf("Level[%d] = %d, want %d", v, gd.Level[v], want)
		}
	}
	// LastIter(v) = max level(in-neighbour)+1:
	// v0: none -> 0; v1: from 0 -> 1; v2: from 1 -> 2;
	// v3: from 0 -> 1; v4: from {2,3} -> max(3,2)=3; v5: from 4 -> 3.
	// This matches the paper's narrative: V4 is updated in iterations 2 and
	// 3 (resides in levels 2 and 3) so with RR it starts at iteration 3.
	wantLast := []uint32{0, 1, 2, 1, 3, 3}
	for v, want := range wantLast {
		if gd.LastIter[v] != want {
			t.Errorf("LastIter[%d] = %d, want %d", v, gd.LastIter[v], want)
		}
	}
	if gd.MaxLastIter != 3 {
		t.Errorf("MaxLastIter = %d, want 3", gd.MaxLastIter)
	}
	if gd.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", gd.Rounds)
	}
}

func TestUnreachableVertices(t *testing.T) {
	// 0 -> 1, and isolated 2, plus 3 -> 0 (3 unreachable from 0).
	g := graph.MustBuild(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 3, Dst: 0, Weight: 1}})
	gd := Generate(g, []graph.VertexID{0}, nil)
	if gd.Reached(2) || gd.Reached(3) {
		t.Error("unreachable vertices marked reached")
	}
	if !gd.Reached(0) || !gd.Reached(1) {
		t.Error("reachable vertices not marked")
	}
	if gd.LastIter[2] != 0 {
		t.Errorf("LastIter of isolated vertex = %d", gd.LastIter[2])
	}
	// Vertex 0 has in-neighbour 3, but 3 is unreachable, so LastIter(0)=0.
	if gd.LastIter[0] != 0 {
		t.Errorf("LastIter[0] = %d, want 0 (unreachable in-neighbour)", gd.LastIter[0])
	}
}

func TestPathGuidance(t *testing.T) {
	g := gen.Path(10)
	gd := Generate(g, []graph.VertexID{0}, nil)
	for v := 0; v < 10; v++ {
		if gd.Level[v] != uint32(v) {
			t.Fatalf("Level[%d] = %d", v, gd.Level[v])
		}
		if gd.LastIter[v] != uint32(v) {
			t.Fatalf("LastIter[%d] = %d, want %d", v, gd.LastIter[v], v)
		}
	}
	if gd.Rounds != 9 {
		t.Errorf("Rounds = %d, want 9", gd.Rounds)
	}
}

func TestDefaultRoots(t *testing.T) {
	// 0 -> 1 <- 2; 3 isolated. Sources: 0 (always), 2, 3 (in-degree 0).
	g := graph.MustBuild(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}})
	roots := DefaultRoots(g)
	want := map[graph.VertexID]bool{0: true, 2: true, 3: true}
	if len(roots) != len(want) {
		t.Fatalf("roots = %v", roots)
	}
	for _, r := range roots {
		if !want[r] {
			t.Fatalf("unexpected root %d", r)
		}
	}
	if len(DefaultRoots(graph.MustBuild(0, nil))) != 0 {
		t.Error("empty graph has roots")
	}
}

func TestEmptyGraph(t *testing.T) {
	gd := Generate(graph.MustBuild(0, nil), nil, nil)
	if gd.Rounds != 0 || gd.MaxLastIter != 0 {
		t.Fatalf("empty guidance: %+v", gd)
	}
}

// unslotted hides a graph's Derived slot.
type unslotted struct{ graph.View }

func TestShared(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 4, 9)
	first, fresh := Shared(g, nil)
	if !fresh {
		t.Fatal("first Shared call on a new graph did not generate")
	}
	if want := Generate(g, DefaultRoots(g), nil); !slices.Equal(first.LastIter, want.LastIter) || !slices.Equal(first.Level, want.Level) {
		t.Fatal("shared guidance differs from the default-root guidance")
	}
	if again, fresh := Shared(g, nil); again != first || fresh {
		t.Fatal("second Shared call on the same graph generated again")
	}
	a, freshA := Shared(unslotted{g}, nil)
	b, freshB := Shared(unslotted{g}, nil)
	if a == b || !freshA || !freshB || a == first {
		t.Fatal("a view without a slot must generate afresh on every call")
	}
}

// Property: LastIter(v) >= Level(v) for every reachable non-root vertex
// (the tree edge that discovered v came from level Level(v)-1, so LastIter
// is at least Level(v)).
func TestQuickLastIterBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		g := gen.RMAT(n, int64(4*n), gen.DefaultRMAT, 1, seed)
		gd := Generate(g, []graph.VertexID{0}, nil)
		for v := 0; v < n; v++ {
			if gd.Level[v] == Unreached || gd.Level[v] == 0 {
				continue
			}
			if gd.LastIter[v] < gd.Level[v] {
				return false
			}
			// An in-neighbour at the deepest level (Rounds) yields
			// LastIter = Rounds+1, so that is the upper bound.
			if gd.LastIter[v] > gd.Rounds+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, gen.DefaultRMAT, 1, 3)
	roots := DefaultRoots(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(g, roots, nil)
	}
}
