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
			lo, hi := p.Range(node)
			if hi < lo || int(hi) > len(seen) {
				t.Fatalf("node %d: range [%d,%d) outside [0,%d)", node, lo, hi, len(seen))
			}
			for v := lo; v < hi; v++ {
				seen[v]++
			}
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("nodes=%d: vertex %d owned %d times", nodes, v, c)
			}
		}
	}
}

// degreeCounter is a View that counts the degree reads made through it.
type degreeCounter struct {
	graph.View
	reads int
}

func (d *degreeCounter) OutDegree(v graph.VertexID) int64 { d.reads++; return d.View.OutDegree(v) }
func (d *degreeCounter) InDegree(v graph.VertexID) int64  { d.reads++; return d.View.InDegree(v) }

// One node owns every vertex whatever the degrees, so chunking for it reads
// none: a one-rank run pays nothing per vertex to partition.
func TestChunkedOneNodeReadsNoDegrees(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RMAT(1000, 8000, gen.DefaultRMAT, 1, 1), graph.MustBuild(0, nil)} {
		view := &degreeCounter{View: g}
		p, err := NewChunked(view, 1)
		if err != nil {
			t.Fatal(err)
		}
		if view.reads != 0 {
			t.Errorf("n=%d: NewChunked(g, 1) read %d degrees, want 0", g.NumVertices(), view.reads)
		}
		if want := []uint32{0, uint32(g.NumVertices())}; !slices.Equal(p.Bounds(), want) {
			t.Errorf("n=%d: bounds %v, want %v", g.NumVertices(), p.Bounds(), want)
		}
	}
}

func TestChunkedDegreeBalance(t *testing.T) {
	g := gen.RMAT(4096, 65536, gen.DefaultRMAT, 1, 2)
	p, err := NewChunked(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Chunking balances (alpha*verts + edges); edge imbalance (max/mean
	// owned out-edges) should be bounded even on a skewed graph.
	var maxEdges, total int64
	for node := 0; node < p.Nodes(); node++ {
		lo, hi := p.Range(node)
		var owned int64
		for v := lo; v < hi; v++ {
			owned += g.OutDegree(v)
		}
		total += owned
		maxEdges = max(maxEdges, owned)
	}
	if imb := float64(maxEdges) * float64(p.Nodes()) / float64(total); imb > 2.0 {
		t.Errorf("edge imbalance %.2f too high for chunked partition", imb)
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
		lo, hi := p.Range(node)
		total += int(hi - lo)
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
	if lo, hi := p.Range(2); lo != 66 || hi != 100 {
		t.Errorf("Range(2) = [%d,%d)", lo, hi)
	}
}

// Property: every partition's ranges are well formed and cover all vertices
// exactly once, for random graphs and node counts.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		nodes := rng.Intn(12) + 1
		g := gen.Uniform(n, int64(rng.Intn(2000)), 1, seed)
		for _, p := range []*Chunked{
			mustChunked(g, nodes),
			mustUniform(n, nodes),
		} {
			seen := make([]int, n)
			for node := 0; node < p.Nodes(); node++ {
				lo, hi := p.Range(node)
				if hi < lo || int(hi) > n {
					return false
				}
				for v := lo; v < hi; v++ {
					seen[v]++
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

// Bounds hands out a copy: a caller that edits it leaves the partition as
// it was.
func TestBoundsIsACopy(t *testing.T) {
	p := mustUniform(5, 2)
	p.Bounds()[1] = 4
	if got := p.Bounds(); !slices.Equal(got, []uint32{0, 2, 5}) {
		t.Errorf("Bounds = %v, want [0 2 5]: the partition shares an array with its caller", got)
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
