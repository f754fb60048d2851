package service_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

// registered is the program matrix the differential tests run: min/max and
// arith (default-rooted and rooted), all three wire widths, the
// symmetrised-graph app and the composite dist32 domain (parent trees).
var registered = []struct {
	key, domain string
	root        graph.VertexID
	iters       int
}{
	{"sssp", "f64", 0, 0},
	{"sssp", "f32", 0, 0},
	{"sssp", "dist32", 0, 0},
	{"bfs", "u32", 0, 0},
	{"cc", "u32", 0, 0},
	{"pr", "f64", 0, 10},
	{"pr", "f32", 0, 10},
	{"numpaths", "f64", 0, 10},
}

// newTestService builds a resident service of the given node count with
// every matrix program registered.
func newTestService(t *testing.T, g *graph.Graph, nodes int) *service.Service {
	t.Helper()
	svc, err := service.New(g, service.Config{Nodes: nodes, Threads: 2, Stealing: true, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for _, reg := range registered {
		if _, err := svc.Register(reg.key, reg.domain, reg.root, reg.iters); err != nil {
			t.Fatalf("register %s:%s: %v", reg.key, reg.domain, err)
		}
	}
	return svc
}

// coldOracle runs the program from scratch, as a plain RR run, on an
// independently rebuilt graph: nothing of the service's state reaches it.
// It returns the projected values and the parent tree (nil unless dist32).
func coldOracle(t *testing.T, key, domain string, root graph.VertexID, iters int, g *graph.Graph) ([]float64, []uint32) {
	t.Helper()
	entry, _ := apps.LookupRunnable(key, domain)
	runG := g
	if entry.NeedsSym {
		runG = apps.Symmetrize(g)
	}
	out, err := entry.Build(root, iters).Execute(runG, cluster.Options{
		Nodes: 2, Threads: 2, Stealing: true, RR: true,
	})
	if err != nil {
		t.Fatalf("cold %s:%s: %v", key, domain, err)
	}
	return out.Values, out.Parents
}

// equalValues compares per the acceptance contract: f64/u32 bit-identical,
// f32 within floating-point rounding.
func equalValues(domain string, got, want float64) bool {
	if got == want {
		return true
	}
	if math.IsInf(got, 1) && math.IsInf(want, 1) {
		return true
	}
	if domain == "f32" {
		return math.Abs(got-want) <= 1e-5*math.Max(math.Abs(got), math.Abs(want))
	}
	return false
}

// TestIncrementalMatchesCold is the differential oracle of the resident
// service: after N mutation batches (duplicates, self-loops, vertex growth
// included), every registered program's incremental result must match a
// cold full run on the final graph — rebuilt independently from the
// concatenated edge list, not via the service's merge path — values and
// dist32 parent trees alike. One rank runs without a degree scan or a
// codec, so the service runs at one node as well as two.
func TestIncrementalMatchesCold(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) { testIncrementalMatchesCold(t, nodes) })
	}
}

func testIncrementalMatchesCold(t *testing.T, nodes int) {
	g0 := gen.Uniform(300, 1200, 4, 17)
	allEdges := g0.Edges(nil)
	svc := newTestService(t, g0, nodes)

	rng := rand.New(rand.NewSource(41))
	n := g0.NumVertices()
	for batchNo := 0; batchNo < 4; batchNo++ {
		b := &service.Batch{}
		if batchNo == 2 {
			b.AddVertices = 4 // growth mid-sequence, edges landing on new ids below
		}
		newN := n + b.AddVertices
		for i := 0; i < 50; i++ {
			b.Adds = append(b.Adds, graph.Edge{
				Src:    graph.VertexID(rng.Intn(newN)),
				Dst:    graph.VertexID(rng.Intn(newN)),
				Weight: 1 + float32(rng.Intn(7)),
			})
		}
		b.Adds = append(b.Adds, b.Adds[0])                             // duplicate
		b.Adds = append(b.Adds, graph.Edge{Src: 5, Dst: 5, Weight: 2}) // self-loop
		snap, err := svc.Apply(b)
		if err != nil {
			t.Fatalf("batch %d: %v", batchNo, err)
		}
		n = newN
		allEdges = append(allEdges, b.Adds...)
		if snap.Graph.NumVertices() != n {
			t.Fatalf("batch %d: %d vertices, want %d", batchNo, snap.Graph.NumVertices(), n)
		}

		coldG := graph.MustBuild(n, allEdges)
		for _, reg := range registered {
			id := service.ProgramID(reg.key, reg.domain)
			p := snap.Programs[id]
			if p == nil {
				t.Fatalf("batch %d: %s missing from snapshot", batchNo, id)
			}
			if !p.Warm {
				t.Fatalf("batch %d: %s did not take the incremental path", batchNo, id)
			}
			want, wantParents := coldOracle(t, reg.key, reg.domain, reg.root, reg.iters, coldG)
			if len(p.Outcome.Values) != len(want) {
				t.Fatalf("batch %d: %s: %d values, want %d", batchNo, id, len(p.Outcome.Values), len(want))
			}
			for v := range want {
				if !equalValues(reg.domain, p.Outcome.Values[v], want[v]) {
					t.Fatalf("batch %d: %s: vertex %d: incremental %g vs cold %g",
						batchNo, id, v, p.Outcome.Values[v], want[v])
				}
			}
			if !slices.Equal(p.Outcome.Parents, wantParents) {
				t.Fatalf("batch %d: %s: incremental parent tree differs from the cold run's", batchNo, id)
			}
		}
	}
	if snap := svc.Snapshot(); snap.Stats.Incremental != 4 || snap.Stats.FullRebuilds != 0 {
		t.Fatalf("stats: %+v, want 4 incremental, 0 full", snap.Stats)
	}
}

// Deletions take the full-fallback path (cold re-runs over a graph whose
// guidance is generated afresh) and must equally match the oracle.
func TestDeletionFallbackMatchesCold(t *testing.T) {
	g0 := gen.Uniform(250, 1000, 4, 23)
	allEdges := g0.Edges(nil)
	svc := newTestService(t, g0, 2)

	// Delete a handful of existing (src, dst) pairs and add a few edges in
	// the same batch.
	kill := map[uint64]bool{}
	b := &service.Batch{}
	for _, e := range allEdges[:5] {
		key := uint64(e.Src)<<32 | uint64(e.Dst)
		if kill[key] {
			continue
		}
		kill[key] = true
		b.Deletes = append(b.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	b.Adds = []graph.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 7, Dst: 3, Weight: 2}}
	snap, err := svc.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.FullRebuilds != 1 {
		t.Fatalf("stats: %+v, want one full rebuild", snap.Stats)
	}

	var kept []graph.Edge
	for _, e := range allEdges {
		if !kill[uint64(e.Src)<<32|uint64(e.Dst)] {
			kept = append(kept, e)
		}
	}
	kept = append(kept, b.Adds...)
	checkFallback := func(snap *service.Snapshot, edges []graph.Edge) {
		t.Helper()
		coldG := graph.MustBuild(g0.NumVertices(), edges)
		for _, reg := range registered {
			id := service.ProgramID(reg.key, reg.domain)
			p := snap.Programs[id]
			if p.Warm {
				t.Fatalf("%s took the incremental path through a deletion batch", id)
			}
			want, _ := coldOracle(t, reg.key, reg.domain, reg.root, reg.iters, coldG)
			for v := range want {
				if !equalValues(reg.domain, p.Outcome.Values[v], want[v]) {
					t.Fatalf("%s: vertex %d: fallback %g vs cold %g", id, v, p.Outcome.Values[v], want[v])
				}
			}
		}
	}
	checkFallback(snap, kept)

	// A second deletion batch that also gives a source (in-degree 0, hence
	// a default guidance root) its first in-edge: guidance still rooted
	// there would let PageRank's "finish early" freeze the source's
	// out-neighbours on ranks that ignore its new in-flow.
	source := graph.VertexID(0)
	for v := 1; v < snap.Graph.NumVertices(); v++ {
		if snap.Graph.InDegree(graph.VertexID(v)) == 0 && snap.Graph.OutDegree(graph.VertexID(v)) > 0 {
			source = graph.VertexID(v)
			break
		}
	}
	if source == 0 {
		t.Fatal("test graph has no source vertex to mutate")
	}
	gone := kept[0]
	b2 := &service.Batch{
		Deletes: []graph.Edge{{Src: gone.Src, Dst: gone.Dst}},
		Adds:    []graph.Edge{{Src: 0, Dst: source, Weight: 3}},
	}
	snap2, err := svc.Apply(b2)
	if err != nil {
		t.Fatal(err)
	}
	var kept2 []graph.Edge
	for _, e := range kept {
		if e.Src != gone.Src || e.Dst != gone.Dst {
			kept2 = append(kept2, e)
		}
	}
	kept2 = append(kept2, b2.Adds...)
	checkFallback(snap2, kept2)
	coldG := graph.MustBuild(g0.NumVertices(), kept2)
	for _, domain := range []string{"f64", "f32"} {
		want := apps.RefPageRank(coldG, 10)
		got := apps.PageRankScores(coldG, snap2.Programs[service.ProgramID("pr", domain)].Outcome.Values)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-4*(1+math.Abs(want[v])) {
				t.Fatalf("pr:%s vertex %d serves rank %g after the stale-root batch, reference %g", domain, v, got[v], want[v])
			}
		}
	}
}

// Readers pin immutable snapshots: under concurrent mutation every loaded
// snapshot must stay internally consistent (program values sized to its
// graph, version monotonic from a reader's view).
func TestSnapshotIsolationUnderMutation(t *testing.T) {
	g0 := gen.Uniform(150, 600, 4, 29)
	svc, err := service.New(g0, service.Config{Nodes: 1, Threads: 2, Stealing: true, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("sssp", "f64", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("cc", "u32", 0, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				if snap.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", snap.Version, lastVersion)
					return
				}
				lastVersion = snap.Version
				for id, p := range snap.Programs {
					if len(p.Outcome.Values) != snap.Graph.NumVertices() {
						t.Errorf("%s at version %d: %d values for %d vertices",
							id, snap.Version, len(p.Outcome.Values), snap.Graph.NumVertices())
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	n := g0.NumVertices()
	for batchNo := 0; batchNo < 6; batchNo++ {
		b := &service.Batch{AddVertices: 1}
		n++
		for i := 0; i < 20; i++ {
			b.Adds = append(b.Adds, graph.Edge{
				Src:    graph.VertexID(rng.Intn(n)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: 1,
			})
		}
		if _, err := svc.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if v := svc.Snapshot().Version; v != 1+2+6 {
		t.Fatalf("final version %d, want %d", v, 1+2+6)
	}
}

// A failed run must not corrupt the published snapshot, and the service
// must recover its session for subsequent batches.
func TestApplyRejectsBadBatchAndStaysServing(t *testing.T) {
	g0 := gen.Uniform(100, 400, 4, 31)
	svc, err := service.New(g0, service.Config{Nodes: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("sssp", "f64", 0, 0); err != nil {
		t.Fatal(err)
	}
	v0 := svc.Snapshot().Version

	if _, err := svc.Apply(&service.Batch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := svc.Apply(&service.Batch{Adds: []graph.Edge{{Src: 0, Dst: 10_000}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if svc.Snapshot().Version != v0 {
		t.Fatal("failed batches must not publish versions")
	}
	if _, err := svc.Apply(&service.Batch{Adds: []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}}); err != nil {
		t.Fatalf("service stopped serving after rejected batches: %v", err)
	}
	if svc.Snapshot().Version != v0+1 {
		t.Fatal("valid batch did not bump the version")
	}

	if _, err := svc.Register("sssp", "f64", 0, 0); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := svc.Register("nope", "f64", 0, 0); err == nil {
		t.Fatal("unknown program accepted")
	}
}

// An insertion batch can change the default guidance root set: a source
// vertex (in-degree 0, hence a root) that gains its first in-edge stops
// being one, and an appended vertex without an in-edge becomes one.
// Guidance still rooted at the old set tells the affected vertices' out-
// neighbours their inputs settle earlier than they do, and PageRank's
// "finish early" freezes them before the new in-flow has propagated. Served
// ranks must stay within the repo's PageRank tolerance of the serial
// reference on the independently rebuilt graph after every batch.
func TestSourceRootGainingInEdgeKeepsPageRankRight(t *testing.T) {
	const iters = 20
	// serve registers PageRank over g0 on a fresh service and applies the
	// batches next draws from the current graph, checking after each.
	serve := func(label string, g0 *graph.Graph, batches int, next func(cur *graph.Graph) *service.Batch) {
		t.Helper()
		svc, err := service.New(g0, service.Config{Nodes: 1, Threads: 1, Sessions: 1, RR: true})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.Register("pr", "f64", 0, iters); err != nil {
			t.Fatal(err)
		}
		allEdges := g0.Edges(nil)
		cur := g0
		for batchNo := 0; batchNo < batches; batchNo++ {
			b := next(cur)
			snap, err := svc.Apply(b)
			if err != nil {
				t.Fatalf("%s batch %d: %v", label, batchNo, err)
			}
			cur = snap.Graph
			allEdges = append(allEdges, b.Adds...)
			coldG := graph.MustBuild(cur.NumVertices(), allEdges)
			want := apps.RefPageRank(coldG, iters)
			got := apps.PageRankScores(coldG, snap.Programs[service.ProgramID("pr", "f64")].Outcome.Values)
			wrong, first := 0, -1
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-4*(1+math.Abs(want[v])) {
					if wrong++; first < 0 {
						first = v
					}
				}
			}
			if wrong > 0 {
				t.Fatalf("%s batch %d: %d of %d vertices serve wrong ranks (vertex %d: %g, reference %g)",
					label, batchNo, wrong, len(want), first, got[first], want[first])
			}
		}
	}

	// Sources gaining in-edges: aim every insertion at a vertex nothing
	// points to yet; once the graph has none left, at any vertex.
	for seed := int64(1); seed <= 6; seed++ {
		g0 := gen.RMAT(1<<10, 1<<14, gen.DefaultRMAT, 8, seed)
		n := g0.NumVertices()
		rng := rand.New(rand.NewSource(seed))
		serve(fmt.Sprintf("seed %d", seed), g0, 30, func(cur *graph.Graph) *service.Batch {
			var sources []graph.VertexID
			for v := 0; v < n; v++ {
				if cur.InDegree(graph.VertexID(v)) == 0 {
					sources = append(sources, graph.VertexID(v))
				}
			}
			b := &service.Batch{}
			for i := 0; i < 64; i++ {
				dst := graph.VertexID(rng.Intn(n))
				if len(sources) > 0 {
					dst = sources[rng.Intn(len(sources))]
				}
				b.Adds = append(b.Adds, graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: dst, Weight: 1})
			}
			return b
		})
	}

	// Vertex growth: a new source n feeding new vertices n → n+1 → n+2 → 5.
	g0 := gen.Uniform(200, 800, 4, 3)
	n := graph.VertexID(g0.NumVertices())
	serve("growth", g0, 1, func(*graph.Graph) *service.Batch {
		return &service.Batch{AddVertices: 3, Adds: []graph.Edge{
			{Src: n, Dst: n + 1, Weight: 1}, {Src: n + 1, Dst: n + 2, Weight: 1}, {Src: n + 2, Dst: 5, Weight: 1},
		}}
	})
}
