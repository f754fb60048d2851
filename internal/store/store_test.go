package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// sameGraph asserts v serves bit-identical topology and weights to want.
func sameGraph(t *testing.T, want *graph.Graph, v graph.View) {
	t.Helper()
	if v.NumVertices() != want.NumVertices() || v.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got n=%d m=%d, want n=%d m=%d",
			v.NumVertices(), v.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	cur := v.Cursor()
	for s := 0; s < want.NumVertices(); s++ {
		id := graph.VertexID(s)
		if got, w := v.OutDegree(id), want.OutDegree(id); got != w {
			t.Fatalf("vertex %d: OutDegree=%d want %d", s, got, w)
		}
		if got, w := v.InDegree(id), want.InDegree(id); got != w {
			t.Fatalf("vertex %d: InDegree=%d want %d", s, got, w)
		}
		checkAdj(t, s, "out", cur.OutNeighbors(id), cur.OutWeights(id), want.OutNeighbors(id), want.OutWeights(id))
		checkAdj(t, s, "in", cur.InNeighbors(id), cur.InWeights(id), want.InNeighbors(id), want.InWeights(id))
	}
}

func checkAdj(t *testing.T, v int, dir string, gotIDs []graph.VertexID, gotWs []float32, wantIDs []graph.VertexID, wantWs []float32) {
	t.Helper()
	if len(gotIDs) != len(wantIDs) || len(gotWs) != len(wantWs) {
		t.Fatalf("vertex %d %s: got %d/%d entries, want %d/%d", v, dir, len(gotIDs), len(gotWs), len(wantIDs), len(wantWs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("vertex %d %s[%d]: id %d want %d", v, dir, i, gotIDs[i], wantIDs[i])
		}
		if math.Float32bits(gotWs[i]) != math.Float32bits(wantWs[i]) {
			t.Fatalf("vertex %d %s[%d]: weight %v want %v", v, dir, i, gotWs[i], wantWs[i])
		}
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"empty":       graph.MustBuild(0, nil),
		"edgeless":    graph.MustBuild(100, nil),
		"unit":        gen.RMAT(500, 4000, gen.DefaultRMAT, 1, 7),                // const-1 weights
		"intweights":  gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 11),              // varint weights
		"floats":      fracWeights(gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 13)), // raw f32
		"grid":        gen.Grid(20, 25, 8, 3),
		"singleblock": gen.Uniform(50, 600, 4, 5),
		"hub":         gen.Star(70_002), // one block of 70,001 out-edges
	}
}

// fracWeights perturbs weights off the integer lattice to force WRaw.
func fracWeights(g *graph.Graph) *graph.Graph {
	edges := g.Edges(nil)
	for i := range edges {
		edges[i].Weight += 0.5
	}
	return graph.MustBuild(g.NumVertices(), edges)
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.slfc")
			if err := Write(path, g); err != nil {
				t.Fatalf("Write: %v", err)
			}
			sg, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer sg.Close()
			if err := sg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			sameGraph(t, g, sg)
			// Same file through the portable pread reader.
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := f.Stat()
			rg, err := openReader(f, st.Size())
			if err != nil {
				t.Fatalf("openReader: %v", err)
			}
			defer rg.Close()
			if err := rg.Validate(); err != nil {
				t.Fatalf("reader Validate: %v", err)
			}
			sameGraph(t, g, rg)
		})
	}
}

func TestBuilderMatchesWrite(t *testing.T) {
	g := gen.RMAT(400, 3000, gen.DefaultRMAT, 16, 21)
	dir := t.TempDir()
	path := filepath.Join(dir, "b.slfc")

	b, err := NewBuilder(path, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	// Small scatter buffer forces multi-pass building.
	b.BufEdges = 257
	for _, e := range g.Edges(nil) {
		if err := b.Add(e.Src, e.Dst, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	sg, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer sg.Close()
	if err := sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sameGraph(t, g, sg)

	// The builder output must be byte-identical to the View writer's:
	// same sort order, same sections, same bytes, guidance included.
	path2 := filepath.Join(dir, "w.slfc")
	if err := Write(path2, g); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatalf("builder output (%d bytes) differs from writer output (%d bytes)", len(b1), len(b2))
	}
	if b1[24]&flagGuidance == 0 {
		t.Fatal("builder output carries no guidance section")
	}
}

func TestOpenBudgetOutOfCore(t *testing.T) {
	g := gen.RMAT(600, 5000, gen.DefaultRMAT, 32, 9)
	path := filepath.Join(t.TempDir(), "g.slfc")
	if err := Write(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := OpenBudget(path, st.Size()/4)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if !sg.OutOfCore() {
		t.Fatalf("budget %d < size %d should force out-of-core mode", st.Size()/4, st.Size())
	}
	sameGraph(t, g, sg)

	big, err := OpenBudget(path, st.Size()*4)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if big.OutOfCore() {
		t.Fatal("budget larger than file must not force out-of-core mode")
	}
	sameGraph(t, g, big)
}

func TestMaterializeRoundTrip(t *testing.T) {
	g := gen.RMAT(200, 1500, gen.DefaultRMAT, 8, 17)
	path := filepath.Join(t.TempDir(), "g.slfc")
	if err := Write(path, g); err != nil {
		t.Fatal(err)
	}
	sg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	back, err := graph.Materialize(sg)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, back)
}

func TestConcurrentCursors(t *testing.T) {
	g := gen.RMAT(800, 6000, gen.DefaultRMAT, 16, 29)
	path := filepath.Join(t.TempDir(), "g.slfc")
	if err := Write(path, g); err != nil {
		t.Fatal(err)
	}
	sg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			cur := sg.Cursor()
			for s := w; s < sg.NumVertices(); s += 4 {
				id := graph.VertexID(s)
				ins, iws := cur.InNeighbors(id), cur.InWeights(id)
				wantN, wantW := g.InNeighbors(id), g.InWeights(id)
				if len(ins) != len(wantN) {
					done <- errMismatch(s)
					return
				}
				for i := range ins {
					if ins[i] != wantN[i] || iws[i] != wantW[i] {
						done <- errMismatch(s)
						return
					}
				}
				_ = sg.OutDegree(id) // concurrent index reads are legal
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "adjacency mismatch at vertex" }
