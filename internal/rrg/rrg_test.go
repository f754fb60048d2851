package rrg

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/store"
	"slfe/internal/ws"
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

func TestSerialiseRoundTrip(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 4, 9)
	gd := Generate(g, DefaultRoots(g), nil)
	var buf bytes.Buffer
	if _, err := gd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGuidance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != gd.Rounds || got.MaxLastIter != gd.MaxLastIter {
		t.Fatalf("metadata mismatch: %d/%d vs %d/%d", got.Rounds, got.MaxLastIter, gd.Rounds, gd.MaxLastIter)
	}
	for v := range gd.LastIter {
		if got.LastIter[v] != gd.LastIter[v] || got.Level[v] != gd.Level[v] {
			t.Fatalf("mismatch at %d", v)
		}
	}
}

func TestSerialiseCorruption(t *testing.T) {
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	var buf bytes.Buffer
	if _, err := gd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	patch := func(off int, b ...byte) []byte {
		out := slices.Clone(full)
		copy(out[off:], b)
		return out
	}
	for name, data := range map[string][]byte{
		"truncated header":  full[:7],
		"truncated body":    full[:15],
		"truncated Level":   full[:len(full)-1],
		"bad magic":         patch(0, 'x'),
		"n one too many":    patch(4, 6),
		"huge header alone": patch(4, 0xff, 0xff, 0xff, 0xff)[:12],
		"huge header":       patch(4, 0xff, 0xff, 0xff, 0xff),
	} {
		// The huge headers claim 2^32-1 vertices: a reader that trusted
		// them would allocate 32 GiB before reading the body.
		if _, err := ReadGuidance(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadGuidance: generated guidance round-trips through WriteTo and
// ReadGuidance, and arbitrary bytes never panic the reader; whatever it
// accepts re-serialises to exactly the bytes it consumed.
func FuzzReadGuidance(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Generate(figure1Graph(), []graph.VertexID{0}, nil).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SLRR\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes as edges (pairs of endpoints) over 16 vertices.
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{Src: uint32(data[i] % 16), Dst: uint32(data[i+1] % 16), Weight: 1})
		}
		g := graph.MustBuild(16, edges)
		gd := Generate(g, DefaultRoots(g), nil)
		var out bytes.Buffer
		if _, err := gd.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		got, err := ReadGuidance(&out)
		if err != nil {
			t.Fatalf("generated guidance does not read back: %v", err)
		}
		if !slices.Equal(got.LastIter, gd.LastIter) || !slices.Equal(got.Level, gd.Level) ||
			got.Rounds != gd.Rounds || got.MaxLastIter != gd.MaxLastIter {
			t.Fatal("generated guidance does not round-trip")
		}

		r := bytes.NewReader(data)
		gd, err = ReadGuidance(r)
		if err != nil {
			return
		}
		out.Reset()
		if _, err := gd.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-serialised %d bytes differ from the %d consumed", out.Len(), len(consumed))
		}
	})
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

// referenceGuidance is a sequential, obviously-correct Algorithm 1.
func referenceGuidance(g *graph.Graph, roots []graph.VertexID) ([]uint32, []uint32) {
	n := g.NumVertices()
	level := make([]uint32, n)
	for i := range level {
		level[i] = Unreached
	}
	var queue []graph.VertexID
	for _, r := range roots {
		if int(r) < n && level[r] == Unreached {
			level[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if level[u] == Unreached {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	last := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			if level[u] != Unreached && level[u]+1 > last[v] {
				last[v] = level[u] + 1
			}
		}
	}
	return level, last
}

// Property: the parallel implementation agrees with the sequential
// reference on random graphs and random root sets.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		g := gen.Uniform(n, int64(rng.Intn(1500)), 1, seed)
		nRoots := rng.Intn(3) + 1
		roots := make([]graph.VertexID, nRoots)
		for i := range roots {
			roots[i] = graph.VertexID(rng.Intn(n))
		}
		gd := Generate(g, roots, nil)
		wantLevel, wantLast := referenceGuidance(g, roots)
		for v := 0; v < n; v++ {
			if gd.Level[v] != wantLevel[v] || gd.LastIter[v] != wantLast[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateMatchesSerialDefinition pins the frontier-walking parallel
// BFS to the serial definition — every field of the guidance, not just the
// two arrays — on a skewed and a high-diameter input, over the heap CSR and
// the mmap'd and out-of-core .slfc views, with 1 and 4 threads.
func TestGenerateMatchesSerialDefinition(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat": gen.RMAT(3000, 24000, gen.DefaultRMAT, 16, 5),
		"grid": gen.Grid(40, 55, 8, 7),
	} {
		path := filepath.Join(t.TempDir(), name+".slfc")
		if err := store.Write(path, g); err != nil {
			t.Fatal(err)
		}
		mm, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		ooc, err := store.OpenBudget(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ooc.Close()

		for rootsName, roots := range map[string][]graph.VertexID{
			"default": DefaultRoots(g),
			"single":  {graph.VertexID(g.NumVertices() / 2)},
		} {
			wantLevel, wantLast := referenceGuidance(g, roots)
			var wantRounds uint32
			for _, l := range wantLevel {
				if l != Unreached {
					wantRounds = max(wantRounds, l)
				}
			}
			wantMax := slices.Max(wantLast)
			for viewName, v := range map[string]graph.View{"heap": g, "mmap": mm, "ooc": ooc} {
				for _, threads := range []int{1, 4} {
					sched := ws.New(threads, true)
					gd := Generate(v, roots, sched)
					sched.Close()
					if !slices.Equal(gd.Level, wantLevel) || !slices.Equal(gd.LastIter, wantLast) ||
						gd.Rounds != wantRounds || gd.MaxLastIter != wantMax {
						t.Errorf("%s/%s/%s/%d threads: guidance differs from the serial definition (rounds %d want %d, max last-iter %d want %d)",
							name, rootsName, viewName, threads, gd.Rounds, wantRounds, gd.MaxLastIter, wantMax)
					}
				}
			}
		}
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
