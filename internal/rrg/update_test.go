package rrg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// addEdges returns a new graph with extra edges appended.
func addEdges(g *graph.Graph, extra []graph.Edge, n int) *graph.Graph {
	edges := g.Edges(nil)
	edges = append(edges, extra...)
	if n < g.NumVertices() {
		n = g.NumVertices()
	}
	return graph.MustBuild(n, edges)
}

func assertGuidanceEqual(t *testing.T, got, want *Guidance, label string) {
	t.Helper()
	if len(got.Level) != len(want.Level) {
		t.Fatalf("%s: %d vs %d vertices", label, len(got.Level), len(want.Level))
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("%s: vertex %d: level %d, want %d", label, v, got.Level[v], want.Level[v])
		}
		if got.LastIter[v] != want.LastIter[v] {
			t.Fatalf("%s: vertex %d: lastIter %d, want %d", label, v, got.LastIter[v], want.LastIter[v])
		}
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if got.MaxLastIter != want.MaxLastIter {
		t.Fatalf("%s: maxLastIter %d, want %d", label, got.MaxLastIter, want.MaxLastIter)
	}
}

func TestUpdateShortcutEdge(t *testing.T) {
	// Path 0->1->2->3->4; adding 0->4 collapses v4's level from 4 to 1.
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	if gd.Level[4] != 4 || gd.LastIter[4] != 4 {
		t.Fatalf("baseline: %v %v", gd.Level, gd.LastIter)
	}
	extra := []graph.Edge{{Src: 0, Dst: 4, Weight: 1}}
	g2 := addEdges(g, extra, 5)
	stats, err := gd.Update(g2, extra)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LevelsChanged != 1 {
		t.Fatalf("levels changed: %d", stats.LevelsChanged)
	}
	want := Generate(g2, []graph.VertexID{0}, nil)
	assertGuidanceEqual(t, gd, want, "shortcut")
}

func TestUpdateReachesNewRegion(t *testing.T) {
	// Two disjoint paths; an added bridge makes the second reachable.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 5, Dst: 6, Weight: 1}, {Src: 6, Dst: 7, Weight: 1},
	}
	g := graph.MustBuild(8, edges)
	gd := Generate(g, []graph.VertexID{0}, nil)
	if gd.Reached(5) {
		t.Fatal("vertex 5 should be unreached")
	}
	extra := []graph.Edge{{Src: 1, Dst: 5, Weight: 1}}
	g2 := addEdges(g, extra, 8)
	if _, err := gd.Update(g2, extra); err != nil {
		t.Fatal(err)
	}
	want := Generate(g2, []graph.VertexID{0}, nil)
	assertGuidanceEqual(t, gd, want, "new region")
	if !gd.Reached(7) || gd.Level[7] != 4 {
		t.Fatalf("vertex 7: level %d", gd.Level[7])
	}
}

func TestUpdateGrowsVertexSet(t *testing.T) {
	g := gen.Path(4)
	gd := Generate(g, []graph.VertexID{0}, nil)
	// Two new vertices 4, 5 attached to the path's end.
	extra := []graph.Edge{{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1}}
	g2 := addEdges(g, extra, 6)
	if _, err := gd.Update(g2, extra); err != nil {
		t.Fatal(err)
	}
	want := Generate(g2, []graph.VertexID{0}, nil)
	assertGuidanceEqual(t, gd, want, "growth")
}

func TestUpdateRejectsShrunkGraph(t *testing.T) {
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	if _, err := gd.Update(gen.Path(3), nil); err == nil {
		t.Fatal("shrunk graph accepted")
	}
}

func TestUpdateRejectsOutOfRangeEdge(t *testing.T) {
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	if _, err := gd.Update(g, []graph.Edge{{Src: 0, Dst: 99}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestUpdateNoOpOnEmptyBatch(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 1, 3)
	gd := Generate(g, DefaultRoots(g), nil)
	want := Generate(g, DefaultRoots(g), nil)
	stats, err := gd.Update(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LevelsChanged != 0 || stats.LastIterRecomputed != 0 {
		t.Fatalf("no-op did work: %+v", stats)
	}
	assertGuidanceEqual(t, gd, want, "no-op")
}

func TestUpdateDuplicateAndSelfLoopBatch(t *testing.T) {
	// Duplicate entries and self-loops are legitimate batch content
	// (parallel edges and self-loops are preserved by graph.Build); the
	// wave must stay idempotent over them.
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	extra := []graph.Edge{
		{Src: 0, Dst: 3, Weight: 1},
		{Src: 0, Dst: 3, Weight: 1}, // exact duplicate
		{Src: 2, Dst: 2, Weight: 1}, // self-loop
	}
	g2 := addEdges(g, extra, 5)
	if _, err := gd.Update(g2, extra); err != nil {
		t.Fatal(err)
	}
	assertGuidanceEqual(t, gd, Generate(g2, []graph.VertexID{0}, nil), "dup+loop")
}

func TestUpdateNewVertexAsSource(t *testing.T) {
	// An edge whose source is a brand-new (hence unreached) vertex cannot
	// relax anything, but it still changes the destination's LastIter
	// candidates and must not be dropped or panic.
	g := gen.Path(3)
	gd := Generate(g, []graph.VertexID{0}, nil)
	extra := []graph.Edge{{Src: 3, Dst: 1, Weight: 1}}
	g2 := addEdges(g, extra, 4)
	stats, err := gd.Update(g2, extra)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LevelsChanged != 0 {
		t.Fatalf("unreached source changed levels: %+v", stats)
	}
	assertGuidanceEqual(t, gd, Generate(g2, []graph.VertexID{0}, nil), "new source")
	if gd.Reached(3) {
		t.Fatal("new vertex must stay unreached")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := gen.Path(5)
	gd := Generate(g, []graph.VertexID{0}, nil)
	orig := Generate(g, []graph.VertexID{0}, nil)
	cp := gd.Clone()

	extra := []graph.Edge{{Src: 0, Dst: 4, Weight: 1}}
	g2 := addEdges(g, extra, 5)
	if _, err := cp.Update(g2, extra); err != nil {
		t.Fatal(err)
	}
	// The clone moved to the new graph; the original must be untouched.
	assertGuidanceEqual(t, gd, orig, "original after clone update")
	assertGuidanceEqual(t, cp, Generate(g2, []graph.VertexID{0}, nil), "updated clone")
}

// Property: incremental update equals full regeneration, for any base
// graph, any batch of added edges, and any (fixed) root set.
func TestUpdateMatchesRegeneration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		base := gen.Uniform(n, int64(rng.Intn(4*n)), 1, seed)
		roots := []graph.VertexID{graph.VertexID(rng.Intn(n))}
		gd := Generate(base, roots, nil)

		grow := rng.Intn(10)
		total := n + grow
		batch := make([]graph.Edge, 1+rng.Intn(20))
		for i := range batch {
			batch[i] = graph.Edge{
				Src:    graph.VertexID(rng.Intn(total)),
				Dst:    graph.VertexID(rng.Intn(total)),
				Weight: 1,
			}
		}
		g2 := addEdges(base, batch, total)
		if _, err := gd.Update(g2, batch); err != nil {
			return false
		}
		want := Generate(g2, roots, nil)
		for v := range want.Level {
			if gd.Level[v] != want.Level[v] || gd.LastIter[v] != want.LastIter[v] {
				return false
			}
		}
		return gd.Rounds == want.Rounds && gd.MaxLastIter == want.MaxLastIter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated incremental batches stay consistent (the wave does
// not accumulate drift).
func TestUpdateChainedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 200
	g := gen.Uniform(n, 400, 1, 1)
	roots := []graph.VertexID{0}
	gd := Generate(g, roots, nil)
	for round := 0; round < 10; round++ {
		batch := make([]graph.Edge, 5)
		for i := range batch {
			batch[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1}
		}
		g = addEdges(g, batch, n)
		if _, err := gd.Update(g, batch); err != nil {
			t.Fatal(err)
		}
		want := Generate(g, roots, nil)
		assertGuidanceEqual(t, gd, want, "chained")
	}
}

// checkCarry carries prev's shared guidance to next = prev + added (grown to
// n vertices) and requires next's shared guidance to equal a cold
// default-root generation field for field, generated afresh exactly when
// the default root set changed, with prev's own guidance left untouched.
func checkCarry(t *testing.T, prev *graph.Graph, added []graph.Edge, n int, label string) (carried bool) {
	t.Helper()
	next := addEdges(prev, added, n)
	Carry(prev, next, added, nil)
	got, fresh := Shared(next, nil)
	assertGuidanceEqual(t, got, Generate(next, DefaultRoots(next), nil), label)
	if changed := !slices.Equal(DefaultRoots(prev), DefaultRoots(next)); fresh != changed {
		t.Fatalf("%s: root set changed %v but Shared(next) fresh %v", label, changed, fresh)
	}
	before, _ := Shared(prev, nil)
	assertGuidanceEqual(t, before, Generate(prev, DefaultRoots(prev), nil), label+": prev")
	return !fresh
}

func TestCarry(t *testing.T) {
	// Roots {0, 4, 5}: 4 is isolated, 5 a source feeding 3 and 6.
	base := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 5, Dst: 3}, {Src: 5, Dst: 6}}
	for _, row := range []struct {
		name      string
		added     []graph.Edge
		grow      int
		emptyPrev bool
		carried   bool
	}{
		{name: "interior insert", added: []graph.Edge{{Src: 1, Dst: 3}}, carried: true},
		{name: "vertex 0 gains an in-edge", added: []graph.Edge{{Src: 3, Dst: 0}}, carried: true},
		{name: "source gains its first in-edge", added: []graph.Edge{{Src: 2, Dst: 5}}},
		{name: "self-loop on a source", added: []graph.Edge{{Src: 5, Dst: 5}}},
		{name: "appended vertex with an in-edge", added: []graph.Edge{{Src: 6, Dst: 7}}, grow: 1, carried: true},
		{name: "appended vertex without an in-edge", added: []graph.Edge{{Src: 7, Dst: 2}}, grow: 1},
		{name: "duplicate edges", added: []graph.Edge{{Src: 1, Dst: 3}, {Src: 1, Dst: 3}, {Src: 0, Dst: 1}}, carried: true},
		{name: "prev with an empty slot", added: []graph.Edge{{Src: 1, Dst: 3}}, emptyPrev: true, carried: true},
	} {
		prev := graph.MustBuild(7, base)
		if !row.emptyPrev {
			Shared(prev, nil)
		}
		if carried := checkCarry(t, prev, row.added, 7+row.grow, row.name); carried != row.carried {
			t.Errorf("%s: carried %v, want %v", row.name, carried, row.carried)
		}
	}
}

// FuzzCarry reads a base graph over 16 vertices, a vertex growth and an
// insertion batch from the bytes: data[0] holds the growth (low two bits)
// and whether prev's slot starts filled (bit 2), data[1] how many of the
// following endpoint pairs are base edges; the rest are the batch.
func FuzzCarry(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 2, 2, 3, 1, 3})
	f.Add([]byte{6, 2, 0, 1, 1, 2, 2, 16, 16, 17})
	f.Add([]byte{5, 1, 3, 4, 5, 3, 4, 4})
	f.Add([]byte{0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		if len(data) < 2 {
			return
		}
		grow := int(data[0] & 3)
		var base, added []graph.Edge
		for i := 2; i+1 < len(data); i += 2 {
			if (i-2)/2 < int(data[1]) {
				base = append(base, graph.Edge{Src: uint32(data[i] % n), Dst: uint32(data[i+1] % n), Weight: 1})
			} else {
				added = append(added, graph.Edge{Src: uint32(int(data[i]) % (n + grow)), Dst: uint32(int(data[i+1]) % (n + grow)), Weight: 1})
			}
		}
		prev := graph.MustBuild(n, base)
		if data[0]&4 != 0 {
			Shared(prev, nil)
		}
		checkCarry(t, prev, added, n+grow, "fuzz")
	})
}

func BenchmarkUpdateVsRegenerate(b *testing.B) {
	g := gen.RMAT(1<<15, 1<<18, gen.DefaultRMAT, 1, 3)
	roots := DefaultRoots(g)
	batch := []graph.Edge{
		{Src: 1, Dst: 1000, Weight: 1},
		{Src: 7, Dst: 2000, Weight: 1},
		{Src: 11, Dst: 3000, Weight: 1},
	}
	g2 := addEdges(g, batch, g.NumVertices())
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gd := Generate(g, roots, nil)
			b.StartTimer()
			if _, err := gd.Update(g2, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("regenerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Generate(g2, roots, nil)
		}
	})
}
