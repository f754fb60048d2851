package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diffGraphs reports the first difference between got and want seen
// through every accessor — sizes, per-vertex degrees, neighbour lists and
// weight bits in both directions, Edges, MaxOutDegree — or got failing
// Validate.
func diffGraphs(got, want *Graph) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("size |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	type dir struct {
		name string
		deg  func(*Graph, VertexID) int64
		ids  func(*Graph, VertexID) []VertexID
		w    func(*Graph, VertexID) []float32
	}
	for _, d := range []dir{
		{"out", (*Graph).OutDegree, (*Graph).OutNeighbors, (*Graph).OutWeights},
		{"in", (*Graph).InDegree, (*Graph).InNeighbors, (*Graph).InWeights},
	} {
		for v := VertexID(0); int(v) < want.NumVertices(); v++ {
			if g, w := d.deg(got, v), d.deg(want, v); g != w {
				return fmt.Errorf("%s-degree of %d: %d, want %d", d.name, v, g, w)
			}
			gIDs, wIDs, gW, wW := d.ids(got, v), d.ids(want, v), d.w(got, v), d.w(want, v)
			if !slices.Equal(gIDs, wIDs) || len(gW) != len(wW) {
				return fmt.Errorf("%s-list of %d: %v, want %v", d.name, v, gIDs, wIDs)
			}
			for i := range wW {
				if math.Float32bits(gW[i]) != math.Float32bits(wW[i]) {
					return fmt.Errorf("%s-weights of %d: %v, want %v", d.name, v, gW, wW)
				}
			}
		}
	}
	if g, w := got.Edges(nil), want.Edges(nil); !slices.Equal(g, w) {
		return errors.New("Edges differ")
	}
	if g, w := got.MaxOutDegree(), want.MaxOutDegree(); g != w {
		return fmt.Errorf("MaxOutDegree %d, want %d", g, w)
	}
	if err := got.Validate(); err != nil {
		return fmt.Errorf("invalid result: %w", err)
	}
	return nil
}

// assertSameGraph fails t unless got equals want through every accessor.
func assertSameGraph(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if err := diffGraphs(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// Property: the merge path of WithEdges is structurally identical to a
// from-scratch Build over the concatenated edge list, including new
// vertices, parallel edges, self-loops and duplicate batch entries.
func TestWithEdgesMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		base := randomEdges(rng, n, rng.Intn(4*n))
		g := MustBuild(n, base)

		grow := rng.Intn(5)
		total := n + grow
		added := randomEdges(rng, total, 1+rng.Intn(30))
		if rng.Intn(2) == 0 { // force a duplicate and a self-loop
			added = append(added, added[0], Edge{Src: 0, Dst: 0, Weight: 1})
		}

		got, err := WithEdges(g, added, total)
		if err != nil {
			return false
		}
		want := MustBuild(total, append(append([]Edge(nil), base...), added...))
		return diffGraphs(got, want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWithEdgesLeavesOriginalUntouched(t *testing.T) {
	base := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}}
	g := MustBuild(3, base)
	if _, err := WithEdges(g, []Edge{{Src: 2, Dst: 3, Weight: 1}, {Src: 0, Dst: 2, Weight: 5}}, 4); err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, MustBuild(3, base), "original")
}

func TestWithEdgesRejectsBadInput(t *testing.T) {
	g := MustBuild(3, []Edge{{Src: 0, Dst: 1}})
	if _, err := WithEdges(g, nil, 2); err == nil {
		t.Fatal("shrinking vertex set accepted")
	}
	if _, err := WithEdges(g, []Edge{{Src: 0, Dst: 5}}, 4); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestWithEdgesEmptyBatchGrowsVertices(t *testing.T) {
	base := []Edge{{Src: 0, Dst: 1, Weight: 1}}
	g := MustBuild(2, base)
	got, err := WithEdges(g, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, got, MustBuild(5, base), "grown")
}

func TestWithoutEdgesRemovesAllParallelInstances(t *testing.T) {
	g := MustBuild(3, []Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 1, Weight: 2}, // parallel pair
		{Src: 1, Dst: 2, Weight: 3}, {Src: 2, Dst: 2, Weight: 4}, // self-loop survives
	})
	got, removed, err := WithoutEdges(g, []Edge{{Src: 0, Dst: 1, Weight: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d edges, want 2 (both parallel instances)", removed)
	}
	want := MustBuild(3, []Edge{{Src: 1, Dst: 2, Weight: 3}, {Src: 2, Dst: 2, Weight: 4}})
	assertSameGraph(t, got, want, "after delete")
}

func TestWithoutEdgesMissingPairIsNoOp(t *testing.T) {
	g := MustBuild(3, []Edge{{Src: 0, Dst: 1, Weight: 1}})
	got, removed, err := WithoutEdges(g, []Edge{{Src: 1, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || got.NumEdges() != 1 {
		t.Fatalf("removed=%d |E|=%d, want 0 and 1", removed, got.NumEdges())
	}
}

func TestWithoutEdgesRejectsOutOfRange(t *testing.T) {
	g := MustBuild(2, []Edge{{Src: 0, Dst: 1}})
	if _, _, err := WithoutEdges(g, []Edge{{Src: 0, Dst: 9}}); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
}

// Property: WithoutEdges equals a filtered rebuild.
func TestWithoutEdgesMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		base := randomEdges(rng, n, 1+rng.Intn(4*n))
		g := MustBuild(n, base)
		del := randomEdges(rng, n, 1+rng.Intn(6))

		got, removed, err := WithoutEdges(g, del)
		if err != nil {
			return false
		}
		kill := map[[2]VertexID]bool{}
		for _, e := range del {
			kill[[2]VertexID{e.Src, e.Dst}] = true
		}
		var kept []Edge
		for _, e := range base {
			if !kill[[2]VertexID{e.Src, e.Dst}] {
				kept = append(kept, e)
			}
		}
		if removed != int64(len(base)-len(kept)) {
			return false
		}
		return diffGraphs(got, MustBuild(n, kept)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
