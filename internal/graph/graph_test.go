package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperGraph returns the 6-vertex example from Figure 1 of the paper.
func paperGraph() *Graph {
	return MustBuild(6, []Edge{
		{0, 1, 1}, {0, 3, 2}, {1, 2, 1}, {2, 4, 1}, {3, 4, 2}, {4, 5, 1}, {2, 5, 5},
	})
}

func TestBuildSmall(t *testing.T) {
	g := paperGraph()
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(4); got != 2 {
		t.Errorf("InDegree(4) = %d, want 2", got)
	}
	if got := g.InDegree(0); got != 0 {
		t.Errorf("InDegree(0) = %d, want 0", got)
	}
	outs := g.OutNeighbors(0)
	if len(outs) != 2 || outs[0] != 1 || outs[1] != 3 {
		t.Errorf("OutNeighbors(0) = %v, want [1 3]", outs)
	}
	ins := g.InNeighbors(5)
	if len(ins) != 2 || ins[0] != 2 || ins[1] != 4 {
		t.Errorf("InNeighbors(5) = %v, want [2 4]", ins)
	}
	w := g.InWeights(5)
	if w[0] != 5 || w[1] != 1 {
		t.Errorf("InWeights(5) = %v, want [5 1]", w)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildEmptyAndSingleton(t *testing.T) {
	g, err := Build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	g, err = Build(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 0 || g.InDegree(0) != 0 {
		t.Fatal("singleton has edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 2, 1}}); err == nil {
		t.Fatal("Build accepted out-of-range destination")
	}
	if _, err := Build(2, []Edge{{5, 0, 1}}); err == nil {
		t.Fatal("Build accepted out-of-range source")
	}
	if _, err := Build(-1, nil); err == nil {
		t.Fatal("Build accepted negative n")
	}
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 0, 1}, {0, 1, 2}, {0, 1, 3}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (parallel preserved)", g.NumEdges())
	}
	if g.OutDegree(0) != 3 {
		t.Fatalf("OutDegree(0) = %d, want 3", g.OutDegree(0))
	}
	w := g.OutWeights(0)
	// Sorted by (id, weight): (0,1) (1,2) (1,3).
	if w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Fatalf("OutWeights(0) = %v", w)
	}
}

func TestMaxOutDegree(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 0, 1}})
	if got := g.MaxOutDegree(); got != 3 {
		t.Fatalf("MaxOutDegree = %d, want 3", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1, 1}, {0, 3, 2}, {1, 2, 1}, {3, 3, 9}}
	g := MustBuild(4, in)
	out := g.Edges(nil)
	if len(out) != len(in) {
		t.Fatalf("Edges returned %d edges, want %d", len(out), len(in))
	}
	// Compare as multisets.
	seen := map[Edge]int{}
	for _, e := range in {
		seen[e]++
	}
	for _, e := range out {
		seen[e]--
		if seen[e] < 0 {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := paperGraph()
	g.out.base.off[3] = g.out.base.off[4] + 1 // non-monotone
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed non-monotone offsets")
	}
	g = paperGraph()
	g.out.base.ids[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range dst")
	}
	g = paperGraph()
	g.in.base.off[0] = 1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed offset[0] != 0")
	}
}

// randomEdges generates a reproducible random edge list over n vertices.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: float32(rng.Intn(100) + 1),
		}
	}
	return edges
}

// Property: sum of out-degrees == sum of in-degrees == m, and every edge in
// the input appears in both CSR and CSC.
func TestQuickDegreeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		m := rng.Intn(1000)
		edges := randomEdges(rng, n, m)
		g := MustBuild(n, edges)
		var sumOut, sumIn int64
		for v := 0; v < n; v++ {
			sumOut += g.OutDegree(VertexID(v))
			sumIn += g.InDegree(VertexID(v))
		}
		if sumOut != int64(m) || sumIn != int64(m) {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR and CSC describe the same edge multiset.
func TestQuickCSREqualsCSC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		edges := randomEdges(rng, n, rng.Intn(500))
		g := MustBuild(n, edges)
		type key struct {
			s, d VertexID
			w    float32
		}
		count := map[key]int{}
		for v := VertexID(0); int(v) < n; v++ {
			ns, ws := g.OutNeighbors(v), g.OutWeights(v)
			for i := range ns {
				count[key{v, ns[i], ws[i]}]++
			}
		}
		for v := VertexID(0); int(v) < n; v++ {
			ns, ws := g.InNeighbors(v), g.InWeights(v)
			for i := range ns {
				count[key{ns[i], v, ws[i]}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency lists are sorted.
func TestQuickAdjacencySorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		g := MustBuild(n, randomEdges(rng, n, rng.Intn(400)))
		for v := VertexID(0); int(v) < n; v++ {
			ns := g.OutNeighbors(v)
			for i := 1; i < len(ns); i++ {
				if ns[i-1] > ns[i] {
					return false
				}
			}
			ins := g.InNeighbors(v)
			for i := 1; i < len(ins); i++ {
				if ins[i-1] > ins[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The packed parallel adjacency sort must agree with a plain reference
// sort: ascending neighbour id, ties broken by ascending weight, parallel
// edges preserved.
func TestSortAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := []float32{-3.5, -1, 0, 0.25, 1, 2, 1e9, -1e9, 7}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		m := rng.Intn(400)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src:    VertexID(rng.Intn(n)),
				Dst:    VertexID(rng.Intn(n)),
				Weight: weights[rng.Intn(len(weights))],
			}
		}
		g, err := Build(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			outs, ows := g.OutNeighbors(VertexID(v)), g.OutWeights(VertexID(v))
			for i := 1; i < len(outs); i++ {
				if outs[i] < outs[i-1] || (outs[i] == outs[i-1] && ows[i] < ows[i-1]) {
					t.Fatalf("trial %d: out-adjacency of %d unsorted at %d: (%d,%v) before (%d,%v)",
						trial, v, i, outs[i-1], ows[i-1], outs[i], ows[i])
				}
			}
			ins, iws := g.InNeighbors(VertexID(v)), g.InWeights(VertexID(v))
			for i := 1; i < len(ins); i++ {
				if ins[i] < ins[i-1] || (ins[i] == ins[i-1] && iws[i] < iws[i-1]) {
					t.Fatalf("trial %d: in-adjacency of %d unsorted at %d", trial, v, i)
				}
			}
		}
		// Multiset of edges unchanged.
		got := g.Edges(nil)
		if len(got) != len(edges) {
			t.Fatalf("trial %d: %d edges after build, want %d", trial, len(got), len(edges))
		}
		count := map[Edge]int{}
		for _, e := range edges {
			count[e]++
		}
		for _, e := range got {
			count[e]--
		}
		for e, c := range count {
			if c != 0 {
				t.Fatalf("trial %d: edge %v multiplicity off by %d", trial, e, c)
			}
		}
	}
}

// The weight bit transform must be an order-preserving bijection, so the
// packed sort key reconstructs weights bit-exactly.
func TestOrderedWeightBits(t *testing.T) {
	vals := []float32{
		float32(math.Inf(-1)), -1e30, -2.5, -1, -math.SmallestNonzeroFloat32,
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, 1, 2.5, 1e30,
		float32(math.Inf(1)),
	}
	for i, a := range vals {
		if got := weightFromOrderedBits(orderedWeightBits(a)); math.Float32bits(got) != math.Float32bits(a) {
			t.Fatalf("%v does not round-trip: got %v", a, got)
		}
		for _, b := range vals[i+1:] {
			if orderedWeightBits(a) >= orderedWeightBits(b) {
				t.Fatalf("order broken: bits(%v) >= bits(%v)", a, b)
			}
		}
	}
	nan := float32(math.NaN())
	if got := weightFromOrderedBits(orderedWeightBits(nan)); math.Float32bits(got) != math.Float32bits(nan) {
		t.Fatal("NaN does not round-trip")
	}
}
