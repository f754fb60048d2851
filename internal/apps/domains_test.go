package apps

import (
	"math"
	"strings"
	"testing"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// Duplicate (key, domain) registrations must be rejected with a clear
// error, not silently overwritten.
func TestRegisterRejectsDuplicates(t *testing.T) {
	build := func(graph.VertexID, int) Runnable { return AsRunnable(SSSP(0)) }
	if err := Register(RunnableApp{Key: "dup-test", Domain: "f64", Build: build}); err != nil {
		t.Fatal(err)
	}
	err := Register(RunnableApp{Key: "dup-test", Domain: "f64", Build: build})
	if err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate error is not descriptive: %v", err)
	}
	// A different domain under the same key is fine.
	if err := Register(RunnableApp{Key: "dup-test", Domain: "f32", Build: build}); err != nil {
		t.Fatalf("distinct domain rejected: %v", err)
	}
	if got := RunnableDomains("dup-test"); len(got) != 2 {
		t.Fatalf("dup-test domains = %v", got)
	}
	// Incomplete registrations are rejected too.
	if err := Register(RunnableApp{Key: "dup-test"}); err == nil {
		t.Fatal("registration without Domain/Build accepted")
	}
}

// Every registered pairing must build and execute.
func TestRunnablesExecute(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 8, 17)
	for _, a := range Runnables() {
		if strings.HasPrefix(a.Key, "dup-test") {
			continue
		}
		runG := g
		if a.NeedsSym {
			runG = Symmetrize(g)
		}
		out, err := a.Build(0, 4).Execute(runG, cluster.Options{Nodes: 2, RR: true})
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Key, a.Domain, err)
		}
		if len(out.Values) != g.NumVertices() {
			t.Fatalf("%s/%s: %d values for %d vertices", a.Key, a.Domain, len(out.Values), g.NumVertices())
		}
	}
}

// The §2.2 satellite: f32 arith programs use exact-equality stability (the
// paper's hardware-precision rule) — no StableEps workaround — while the
// f64 instantiations keep the tolerance their 52-bit mantissa needs.
func TestF32ProgramsUseExactStability(t *testing.T) {
	if eps := PageRankF32(10).StableEps; eps != 0 {
		t.Fatalf("PageRankF32 carries StableEps %v; f32 must use exact equality", eps)
	}
	if eps := TunkRankF32(10).StableEps; eps != 0 {
		t.Fatalf("TunkRankF32 carries StableEps %v; f32 must use exact equality", eps)
	}
	if eps := PageRank(10).StableEps; eps == 0 {
		t.Fatal("PageRank (f64) lost its StableEps tolerance; finish-early would never fire")
	}
	if eps := TunkRank(10).StableEps; eps == 0 {
		t.Fatal("TunkRank (f64) lost its StableEps tolerance")
	}
}

// Exact-equality "finish early" must actually fire on f32 PageRank: with
// redundancy reduction every vertex's rank saturates in float32 precision
// and the run terminates before its iteration cap with a non-zero
// early-converged count.
func TestF32FinishEarlyFiresWithoutStableEps(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 23)
	res, err := cluster.Execute(g, PageRankF32(200), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Iterations >= 200 {
		t.Fatalf("f32 PageRank ran to its %d-iteration cap; exact-equality stability never converged", 200)
	}
	if res.Result.ECCount == 0 {
		t.Fatal("no vertices early-converged under exact-equality stability")
	}
}

// Unreached vertices must keep the NoParent sentinel even under full
// in-edge relaxation sweeps (every pull round relaxes all in-edges):
// a proposal from an unreached source must never beat {+Inf, NoParent}
// through the parent tie-break, or mutually-adjacent unreached vertices
// would hand each other cyclic parents.
func TestSSSPTreeUnreachedKeepNoParent(t *testing.T) {
	p := SSSPTree(0)
	unreached := core.DistParent{Dist: float32(math.Inf(1)), Parent: core.NoParent}
	// Hook-level invariant: relaxing an edge from an unreached source
	// proposes nothing that Better would adopt.
	cand := p.RelaxE(7, unreached, 1.5)
	if p.Better(cand, unreached) {
		t.Fatalf("proposal %+v from an unreached source beats the unreached sentinel", cand)
	}
	if cand.Parent != core.NoParent {
		t.Fatalf("unreached source proposed parent %d", cand.Parent)
	}
	// Equivalent unreached values must not order on parent either.
	if p.Better(core.DistParent{Dist: float32(math.Inf(1)), Parent: 3}, unreached) {
		t.Fatal("an Inf-distance value with a parent ordered above the unreached sentinel")
	}

	// End-to-end: a graph with an unreachable 3-cycle; every unreached
	// vertex must come back with NoParent.
	g := graph.MustBuild(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1}, {Src: 5, Dst: 3, Weight: 1},
	})
	res, err := cluster.Execute(g, SSSPTree(0), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 3; v < 6; v++ {
		dp := res.Result.Values[v]
		if !math.IsInf(float64(dp.Dist), 1) || dp.Parent != core.NoParent {
			t.Fatalf("unreachable vertex %d ended with %+v", v, dp)
		}
	}
}

// The composite SSSPTree program must produce a valid shortest-path tree
// (the parent edge exists and witnesses the distance).
func TestSSSPTreeParentsWitnessDistances(t *testing.T) {
	g := gen.Grid(24, 24, 9, 7)
	res, err := cluster.Execute(g, SSSPTree(0), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cluster.Execute(g, SSSPF32(0), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, dp := range res.Result.Values {
		if dist.Result.Values[v] != dp.Dist {
			t.Fatalf("vertex %d: tree distance %v, plain f32 SSSP %v", v, dp.Dist, dist.Result.Values[v])
		}
		if v == 0 || dp.Parent == core.NoParent {
			continue
		}
		witnessed := false
		ins, ws := g.InNeighbors(graph.VertexID(v)), g.InWeights(graph.VertexID(v))
		for i, u := range ins {
			if u == graph.VertexID(dp.Parent) && res.Result.Values[u].Dist+ws[i] == dp.Dist {
				witnessed = true
				break
			}
		}
		if !witnessed {
			t.Fatalf("vertex %d: parent %d does not witness distance %v", v, dp.Parent, dp.Dist)
		}
	}
}
