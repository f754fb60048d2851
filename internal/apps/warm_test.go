package apps_test

import (
	"math"
	"math/rand"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// randomBatch draws a mutation batch over [0, n): mostly existing-vertex
// edges, with duplicates and self-loops allowed.
func randomBatch(rng *rand.Rand, n, count int) []graph.Edge {
	batch := make([]graph.Edge, count)
	for i := range batch {
		batch[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(n)),
			Dst:    graph.VertexID(rng.Intn(n)),
			Weight: 1 + float32(rng.Intn(9)),
		}
	}
	return batch
}

// Warm SSSP re-execution after each batch must be bit-identical to a cold
// run on the mutated graph: the monotone wave from the added edges'
// sources reaches the same least fixed point.
func TestWarmMatchesColdSSSP(t *testing.T) {
	g := gen.Uniform(400, 1600, 4, 7)
	s, err := cluster.NewSession(2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	opt := cluster.Options{RR: true}
	_, resume, err := apps.AsRunnable(apps.SSSP(0)).ExecuteIn(s, g, opt)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for batchNo := 0; batchNo < 4; batchNo++ {
		n := g.NumVertices()
		if batchNo == 2 {
			n += 3 // grow the vertex set mid-sequence
		}
		added := randomBatch(rng, n, 60)
		g2, err := graph.WithEdges(g, added, n)
		if err != nil {
			t.Fatal(err)
		}
		out, next, err := resume.ExecuteWarm(s, g2, added, opt)
		if err != nil {
			t.Fatalf("batch %d: %v", batchNo, err)
		}
		cold, err := cluster.Execute(g2, apps.SSSP(0), cluster.Options{Nodes: 2, Threads: 2, RR: true})
		if err != nil {
			t.Fatal(err)
		}
		want := cold.Result.Float64s()
		if len(out.Values) != len(want) {
			t.Fatalf("batch %d: %d values, want %d", batchNo, len(out.Values), len(want))
		}
		for v := range want {
			if out.Values[v] != want[v] && !(math.IsInf(out.Values[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("batch %d: vertex %d: warm %g vs cold %g", batchNo, v, out.Values[v], want[v])
			}
		}
		g, resume = g2, next
	}
}

// Arith programs re-run cold on ExecuteWarm (fixed-iteration semantics) and
// must match a fresh Execute over the same graph's shared guidance.
func TestWarmArithRerunsCold(t *testing.T) {
	g := gen.Uniform(300, 1200, 4, 21)
	s, err := cluster.NewSession(2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	opt := cluster.Options{RR: true}
	_, resume, err := apps.AsRunnable(apps.PageRank(10)).ExecuteIn(s, g, opt)
	if err != nil {
		t.Fatal(err)
	}

	added := randomBatch(rand.New(rand.NewSource(7)), g.NumVertices(), 40)
	g2, err := graph.WithEdges(g, added, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := resume.ExecuteWarm(s, g2, added, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cluster.Execute(g2, apps.PageRank(10), cluster.Options{Nodes: 2, Threads: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Result.Float64s()
	for v := range want {
		if out.Values[v] != want[v] {
			t.Fatalf("vertex %d: warm rerun %g vs cold %g", v, out.Values[v], want[v])
		}
	}
}

// Pure vertex growth (no added edges) must not run the engine: prior values
// are kept and appended vertices get cold initial state.
func TestWarmVertexGrowthWithoutEdges(t *testing.T) {
	g := gen.Uniform(200, 800, 4, 5)
	s, err := cluster.NewSession(1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base, resume, err := apps.AsRunnable(apps.SSSP(0)).ExecuteIn(s, g, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := graph.WithEdges(g, nil, g.NumVertices()+5)
	if err != nil {
		t.Fatal(err)
	}
	out, next, err := resume.ExecuteWarm(s, grown, nil, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if next == nil {
		t.Fatal("no resume state after growth-only batch")
	}
	if len(out.Values) != g.NumVertices()+5 {
		t.Fatalf("got %d values, want %d", len(out.Values), g.NumVertices()+5)
	}
	for v, want := range base.Values {
		if out.Values[v] != want && !(math.IsInf(out.Values[v], 1) && math.IsInf(want, 1)) {
			t.Fatalf("vertex %d changed: %g vs %g", v, out.Values[v], want)
		}
	}
	for v := g.NumVertices(); v < len(out.Values); v++ {
		if !math.IsInf(out.Values[v], 1) {
			t.Fatalf("appended vertex %d: %g, want +Inf", v, out.Values[v])
		}
	}
}

// Resumes carry the vertex count of the graph they were computed on;
// shrinking the graph under a resume is an error, not silent corruption.
func TestWarmRejectsShrunkGraph(t *testing.T) {
	g := gen.Path(16)
	s, err := cluster.NewSession(1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, resume, err := apps.AsRunnable(apps.SSSP(0)).ExecuteIn(s, g, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := resume.ExecuteWarm(s, gen.Path(8), nil, cluster.Options{}); err == nil {
		t.Fatal("shrunk graph accepted by warm re-execution")
	}
}

// The CC runners (program built from the symmetrised execution graph) must
// warm-start too, and their warm runs must match cold CC.
func TestWarmMatchesColdCC(t *testing.T) {
	raw := gen.Uniform(250, 700, 4, 13)
	g := apps.Symmetrize(raw)
	s, err := cluster.NewSession(2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	entry, ok := apps.LookupRunnable("cc", "u32")
	if !ok {
		t.Fatal("cc:u32 not registered")
	}
	_, resume, err := entry.Build(0, 0).ExecuteIn(s, g, cluster.Options{RR: true})
	if err != nil {
		t.Fatal(err)
	}

	// Symmetrised batch, the way a service layer feeds CC.
	rng := rand.New(rand.NewSource(3))
	half := randomBatch(rng, g.NumVertices(), 25)
	added := make([]graph.Edge, 0, 2*len(half))
	for _, e := range half {
		added = append(added, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	g2, err := graph.WithEdges(g, added, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := resume.ExecuteWarm(s, g2, added, cluster.Options{RR: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := entry.Build(0, 0).Execute(g2, cluster.Options{Nodes: 2, Threads: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold.Values {
		if out.Values[v] != cold.Values[v] {
			t.Fatalf("vertex %d: warm %g vs cold %g", v, out.Values[v], cold.Values[v])
		}
	}
}
