package gen

import (
	"math"
	"testing"
	"testing/quick"

	"slfe/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(1024, 8192, DefaultRMAT, 16, 42)
	b := RMAT(1024, 8192, DefaultRMAT, 16, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := graph.VertexID(0); int(v) < a.NumVertices(); v++ {
		an, bn := a.OutNeighbors(v), b.OutNeighbors(v)
		if len(an) != len(bn) {
			t.Fatalf("degree differs at %d", v)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("neighbour differs at %d[%d]", v, i)
			}
		}
	}
	c := RMAT(1024, 8192, DefaultRMAT, 16, 43)
	same := true
	for v := graph.VertexID(0); int(v) < a.NumVertices() && same; v++ {
		an, cn := a.OutNeighbors(v), c.OutNeighbors(v)
		if len(an) != len(cn) {
			same = false
			break
		}
		for i := range an {
			if an[i] != cn[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(4096, 65536, DefaultRMAT, 1, 7)
	if g.NumEdges() != 65536 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	// Power-law-ish: max degree must far exceed average degree.
	avg := g.AvgDegree()
	if maxDeg := float64(g.MaxOutDegree()); maxDeg < 5*avg {
		t.Errorf("R-MAT not skewed: maxdeg %.1f vs avg %.1f", maxDeg, avg)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(500, 2500, 10, 1)
	if g.NumVertices() != 500 || g.NumEdges() != 2500 {
		t.Fatalf("got %v", g)
	}
	for _, e := range g.Edges(nil) {
		if e.Weight < 1 || e.Weight > 10 {
			t.Fatalf("weight %v out of range", e.Weight)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(10, 7, 5, 3)
	if g.NumVertices() != 70 {
		t.Fatalf("NumVertices = %d, want 70", g.NumVertices())
	}
	// Interior vertices have degree 4, corners 2, edges 3.
	if d := g.OutDegree(graph.VertexID(0)); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
	if d := g.OutDegree(graph.VertexID(1*7 + 1)); d != 4 {
		t.Errorf("interior degree = %d, want 4", d)
	}
	// Symmetry: every edge has its reverse with the same weight.
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		ns, ws := g.OutNeighbors(v), g.OutWeights(v)
		for i, u := range ns {
			found := false
			back, bw := g.OutNeighbors(u), g.OutWeights(u)
			for j, x := range back {
				if x == v && bw[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("missing reverse edge %d->%d", u, v)
			}
		}
	}
}

func TestPathAndStar(t *testing.T) {
	p := Path(10)
	if p.NumEdges() != 9 {
		t.Fatalf("Path edges = %d", p.NumEdges())
	}
	for v := 0; v < 9; v++ {
		if p.OutDegree(graph.VertexID(v)) != 1 {
			t.Fatalf("path degree at %d", v)
		}
	}
	s := Star(10)
	if s.OutDegree(0) != 9 || s.InDegree(0) != 0 {
		t.Fatalf("star hub degrees wrong")
	}
}

func TestClusteredConnectivity(t *testing.T) {
	g := Clustered(100, 4, 10, 5)
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Every vertex should have at least one neighbour (ring guarantees it).
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) == 0 {
			t.Fatalf("isolated vertex %d", v)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range Table4 {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.FullName != want.FullName {
			t.Errorf("ByName(%s) = %s", want.Name, got.FullName)
		}
		if _, err := ByName(want.FullName); err != nil {
			t.Errorf("ByName(%s): %v", want.FullName, err)
		}
	}
	if _, err := ByName("RMAT"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown dataset")
	}
}

func TestProxyMatchesAverageDegree(t *testing.T) {
	for _, d := range Table4 {
		g := d.Proxy(1000)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s proxy empty", d.Name)
		}
		// Average degree should be within 2x of the paper's (minimum edge
		// floors can raise it for tiny scales).
		ratio := g.AvgDegree() / d.AvgDeg
		if ratio < 0.4 || ratio > 3.0 {
			t.Errorf("%s proxy avg degree %.1f vs paper %.1f", d.Name, g.AvgDegree(), d.AvgDeg)
		}
	}
}

func TestProxyDeterministicAndDistinct(t *testing.T) {
	a := Table4[0].Proxy(1000)
	b := Table4[0].Proxy(1000)
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatal("proxy not deterministic")
	}
	c := Table4[1].Proxy(1000)
	if a.NumVertices() == c.NumVertices() && a.NumEdges() == c.NumEdges() {
		t.Fatal("distinct datasets produced identical shapes")
	}
}

// Property: RMAT always emits exactly m in-range edges.
func TestQuickRMATEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		g := RMAT(256, 1024, DefaultRMAT, 8, seed)
		return g.NumEdges() == 1024 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: grid diameter grows with size — BFS from corner reaches all
// vertices in rows+cols-2 hops.
func TestGridDiameter(t *testing.T) {
	rows, cols := 8, 8
	g := Grid(rows, cols, 1, 1)
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[0] = 0
	queue := []graph.VertexID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if dist[u] == math.MaxInt {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	maxd := 0
	for _, d := range dist {
		if d == math.MaxInt {
			t.Fatal("grid not connected")
		}
		if d > maxd {
			maxd = d
		}
	}
	if want := rows + cols - 2; maxd != want {
		t.Fatalf("grid eccentricity from corner = %d, want %d", maxd, want)
	}
}
