package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

func TestChunkedCoversDisjoint(t *testing.T) {
	g := gen.RMAT(1000, 8000, gen.DefaultRMAT, 1, 1)
	for _, nodes := range []int{1, 2, 3, 8, 16} {
		p, err := NewChunked(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes() != nodes {
			t.Fatalf("Nodes = %d, want %d", p.Nodes(), nodes)
		}
		seen := make([]int, g.NumVertices())
		for node := 0; node < nodes; node++ {
			p.Owned(node, func(v graph.VertexID) bool {
				seen[v]++
				if p.Owner(v) != node {
					t.Fatalf("Owner(%d) = %d, want %d", v, p.Owner(v), node)
				}
				return true
			})
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("nodes=%d: vertex %d owned %d times", nodes, v, c)
			}
		}
	}
}

func TestChunkedDegreeBalance(t *testing.T) {
	g := gen.RMAT(4096, 65536, gen.DefaultRMAT, 1, 2)
	p, err := NewChunked(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := Measure(g, p)
	// Chunking balances (alpha*verts + edges); edge imbalance should be
	// bounded even on a skewed graph.
	if b.EdgeImbalance > 2.0 {
		t.Errorf("edge imbalance %.2f too high for chunked partition", b.EdgeImbalance)
	}
}

func TestChunkedMoreNodesThanVertices(t *testing.T) {
	g := gen.Path(3)
	p, err := NewChunked(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for node := 0; node < 8; node++ {
		total += p.Count(node)
	}
	if total != 3 {
		t.Fatalf("counts sum to %d, want 3", total)
	}
}

func TestChunkedInvalidNodes(t *testing.T) {
	g := gen.Path(3)
	if _, err := NewChunked(g, 0); err == nil {
		t.Error("NewChunked accepted 0 nodes")
	}
	if _, err := NewChunkedUniform(10, -1); err == nil {
		t.Error("NewChunkedUniform accepted negative nodes")
	}
	if _, err := NewHashed(10, 0); err == nil {
		t.Error("NewHashed accepted 0 nodes")
	}
}

func TestUniformRanges(t *testing.T) {
	p, err := NewChunkedUniform(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Range(0)
	if lo != 0 || hi != 33 {
		t.Errorf("Range(0) = [%d,%d)", lo, hi)
	}
	if p.Owner(0) != 0 || p.Owner(33) != 1 || p.Owner(99) != 2 {
		t.Errorf("Owner boundaries wrong: %d %d %d", p.Owner(0), p.Owner(33), p.Owner(99))
	}
}

func TestHashed(t *testing.T) {
	p, err := NewHashed(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count(0) != 4 || p.Count(1) != 3 || p.Count(2) != 3 {
		t.Errorf("counts: %d %d %d", p.Count(0), p.Count(1), p.Count(2))
	}
	var got []graph.VertexID
	p.Owned(1, func(v graph.VertexID) bool { got = append(got, v); return true })
	want := []graph.VertexID{1, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("Owned(1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Owned(1) = %v, want %v", got, want)
		}
	}
}

func TestMeasureEdgeCut(t *testing.T) {
	// Path graph 0->1->2->3 split in half: exactly 1 of 3 edges crosses.
	g := gen.Path(4)
	p, err := NewChunkedUniform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Measure(g, p)
	if b.EdgeCut < 0.32 || b.EdgeCut > 0.34 {
		t.Errorf("EdgeCut = %.3f, want 1/3", b.EdgeCut)
	}
}

// Property: every partition covers all vertices exactly once, and Owner
// agrees with Owned, for random graphs and node counts.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		nodes := rng.Intn(12) + 1
		g := gen.Uniform(n, int64(rng.Intn(2000)), 1, seed)
		for _, p := range []Partition{
			mustChunked(g, nodes),
			mustUniform(n, nodes),
			mustHashed(n, nodes),
		} {
			seen := make([]int, n)
			for node := 0; node < p.Nodes(); node++ {
				count := 0
				p.Owned(node, func(v graph.VertexID) bool {
					seen[v]++
					count++
					if p.Owner(v) != node {
						seen[v] = -1000
					}
					return true
				})
				if count != p.Count(node) {
					return false
				}
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFromBoundsValidation(t *testing.T) {
	for _, bounds := range [][]uint32{
		nil,
		{0},
		{1, 5},    // must start at 0
		{0, 5, 3}, // decreasing
	} {
		if _, err := FromBounds(bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
	bounds := []uint32{0, 0, 5}
	p, err := FromBounds(bounds)
	if err != nil {
		t.Fatalf("empty first range rejected: %v", err)
	}
	bounds[1] = 3
	p.Bounds()[2] = 9
	if got := p.Bounds(); !slices.Equal(got, []uint32{0, 0, 5}) {
		t.Errorf("Bounds = %v, want [0 0 5]: the partition shares an array with its caller", got)
	}
}

// linearOwner is Owner's oracle: the node whose [lo, hi) holds v.
func linearOwner(bounds []uint32, v uint32) int {
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] <= v && v < bounds[i+1] {
			return i
		}
	}
	return -1
}

// Owner must agree with a linear scan on every vertex, including next to
// empty ranges at the start, in the middle and at the end.
func TestOwnerMatchesLinearScan(t *testing.T) {
	for _, bounds := range [][]uint32{
		{0, 40},
		{0, 10, 10, 25, 40},
		{0, 0, 0, 7, 40},
		{0, 13, 40, 40, 40},
		{0, 1, 2, 3, 4, 40},
		{0, 39, 40},
	} {
		p, err := FromBounds(bounds)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint32(0); v < 40; v++ {
			if got, want := p.Owner(v), linearOwner(bounds, v); got != want {
				t.Fatalf("bounds %v: Owner(%d) = %d, want %d", bounds, v, got, want)
			}
		}
	}
}

func TestOwnerProperty(t *testing.T) {
	f := func(raw []uint32, v uint32) bool {
		bounds := []uint32{0}
		cur := uint32(0)
		for _, b := range raw {
			cur += b % 1000 // zero steps make empty ranges
			bounds = append(bounds, cur)
		}
		if len(bounds) < 2 || cur == 0 {
			return true
		}
		p, err := FromBounds(bounds)
		if err != nil {
			return false
		}
		v %= cur
		return p.Owner(v) == linearOwner(bounds, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustChunked(g *graph.Graph, nodes int) *Chunked {
	p, err := NewChunked(g, nodes)
	if err != nil {
		panic(err)
	}
	return p
}

func mustUniform(n, nodes int) *Chunked {
	p, err := NewChunkedUniform(n, nodes)
	if err != nil {
		panic(err)
	}
	return p
}

func mustHashed(n, nodes int) *Hashed {
	p, err := NewHashed(n, nodes)
	if err != nil {
		panic(err)
	}
	return p
}
