package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// TestBFSLevelsMatchGuidance cross-validates two independent subsystems:
// the engine running the BFS program must produce exactly the preprocessing
// BFS levels of the rrg package.
func TestBFSLevelsMatchGuidance(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 1, 21)
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)
	res, err := cluster.Execute(g, BFS(0), cluster.Options{Nodes: 3, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		engineLevel := res.Result.Values[v]
		if gd.Level[v] == rrg.Unreached {
			if !math.IsInf(engineLevel, 1) {
				t.Fatalf("vertex %d: engine reached (%v) but guidance did not", v, engineLevel)
			}
			continue
		}
		if engineLevel != float64(gd.Level[v]) {
			t.Fatalf("vertex %d: engine level %v vs guidance level %d", v, engineLevel, gd.Level[v])
		}
	}
}

// TestEngineDeterministic: two identical runs produce identical values and
// identical iteration counts regardless of thread count.
func TestEngineDeterministic(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 16, 22)
	run := func(threads int) []float64 {
		res, err := cluster.Execute(g, SSSP(0), cluster.Options{
			Nodes: 2, Threads: threads, RR: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Values
	}
	a := run(1)
	for _, threads := range []int{1, 4, 8} {
		b := run(threads)
		for v := range a {
			if a[v] != b[v] && !(math.IsInf(a[v], 1) && math.IsInf(b[v], 1)) {
				t.Fatalf("threads=%d: vertex %d differs: %v vs %v", threads, v, a[v], b[v])
			}
		}
	}
}

// TestRootedArithMatchesRROff: "finish early" freezes a vertex once its
// value has been stable for LastIter rounds, so LastIter must be measured
// from where the program's information starts. For every registered arith
// program, on R-MAT inputs and whatever its root, RR-on must stay within
// 1e-4·(1+|RR-off|) of RR-off at every vertex. Programs informative
// everywhere from iteration 0 (pr, tr, spmv) must run on the graph's shared
// default-root guidance; the rooted ones (numpaths, heat, bp) get guidance
// from their Roots.
func TestRootedArithMatchesRROff(t *testing.T) {
	const iters = 30
	defaultRooted := map[string]bool{"pr": true, "tr": true, "spmv": true}
	guidanceOf := func(g graph.View, r Runnable) *rrg.Guidance {
		opt := cluster.Options{Nodes: 1, RR: true}
		var gd *rrg.Guidance
		var err error
		switch x := r.(type) {
		case progRunner[float64]:
			gd, err = runGuidance(g, x.p, opt)
		case progRunner[float32]:
			gd, err = runGuidance(g, x.p, opt)
		default:
			t.Fatalf("unknown runnable type %T", r)
		}
		if err != nil {
			t.Fatal(err)
		}
		return gd
	}
	for seed := int64(1); seed <= 2; seed++ {
		g := gen.RMAT(1<<12, 1<<15, gen.DefaultRMAT, 4, seed)
		shared, _ := rrg.Shared(g, nil)
		for _, entry := range Runnables() {
			if entry.Agg != core.Arith {
				continue
			}
			for _, root := range []graph.VertexID{5, 2000} {
				r := entry.Build(root, iters)
				var out [2]*Outcome
				for i, rr := range []bool{false, true} {
					var err error
					if out[i], err = r.Execute(g, cluster.Options{Nodes: 1, Threads: 2, RR: rr}); err != nil {
						t.Fatal(err)
					}
				}
				wrong := 0
				for v, off := range out[0].Values {
					if math.Abs(out[1].Values[v]-off) > 1e-4*(1+math.Abs(off)) {
						wrong++
					}
				}
				if wrong > 0 {
					t.Errorf("%s/%s seed %d root %d: %d of %d vertices differ between RR on and off",
						entry.Key, entry.Domain, seed, root, wrong, len(out[0].Values))
				}
				if defaultRooted[entry.Key] && guidanceOf(g, r) != shared {
					t.Errorf("%s/%s: RR run did not use the graph's shared guidance", entry.Key, entry.Domain)
				}
			}
		}
	}
}

// runGuidance runs p with opt and returns the guidance the run used.
func runGuidance[V comparable](g graph.View, p *core.Program[V], opt cluster.Options) (*rrg.Guidance, error) {
	res, err := cluster.Execute(g, p, opt)
	if err != nil {
		return nil, err
	}
	return res.Guidance, nil
}

// TestHeatConservesClamp: the clamped sources never change and no vertex
// exceeds the source temperature.
func TestHeatConservesClamp(t *testing.T) {
	g := Symmetrize(gen.Clustered(500, 2, 4, 3))
	hot := []graph.VertexID{0, 250}
	res, err := cluster.Execute(g, HeatSimulation(hot, 40), cluster.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range res.Result.Values {
		if h < 0 || h > 100 {
			t.Fatalf("vertex %d: heat %v outside [0,100]", v, h)
		}
	}
	if res.Result.Values[0] != 100 || res.Result.Values[250] != 100 {
		t.Fatal("heat sources drifted")
	}
}

// Property: PageRank mass conservation (paper formulation): the sum of
// ranks stays within [0.15n, n] for any graph, any worker count, RR on or
// off.
func TestQuickPageRankMassBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 10
		g := gen.Uniform(n, int64(rng.Intn(6*n)+n), 1, seed)
		rr := seed%2 == 0
		res, err := cluster.Execute(g, PageRank(20), cluster.Options{Nodes: rng.Intn(3) + 1, RR: rr})
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range PageRankScores(g, res.Result.Values) {
			if r < 0.1499999 {
				return false // every vertex keeps at least the base rank
			}
			sum += r
		}
		// With the paper's unnormalised recurrence, total mass is bounded by
		// n/(1-0.85) but in practice stays near n; require sanity bounds.
		return sum >= 0.15*float64(n) && sum <= 10*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the BFS level of every vertex is at most the SSSP hop count
// implied by its shortest path (unit-weight consistency across programs).
func TestQuickBFSLowerBoundsSSSP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		g := gen.Uniform(n, int64(rng.Intn(4*n)), 1, seed) // unit weights
		bfs, err := cluster.Execute(g, BFS(0), cluster.Options{Nodes: 1})
		if err != nil {
			return false
		}
		sssp, err := cluster.Execute(g, SSSP(0), cluster.Options{Nodes: 1, RR: true})
		if err != nil {
			return false
		}
		// With unit weights, BFS levels and SSSP distances coincide.
		for v := range bfs.Result.Values {
			a, b := bfs.Result.Values[v], sssp.Result.Values[v]
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
