// Cross-domain differential test: the value-domain genericization must
// preserve the engine's strategy/transport/rank-count invariance contract
// in every domain, and the narrow domains must agree with the f64 oracle.
//
// For each registered application and each of its domains (f64, f32, and
// u32 where the property is an integer label), every delta-sync strategy
// (dense | sparse | adaptive) over both the in-process transport and a
// real TCP mesh must produce values bit-identical (in the domain's own
// wire words) to that domain's one-rank run. Across domains, f32 must
// match f64 within float32 rounding, and u32 must match f64 exactly after
// identifying the unreached sentinels.
package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// runTCPDomain executes the program over a freshly dialled localhost TCP
// mesh and returns every rank's values.
func runTCPDomain[V comparable](t *testing.T, g *graph.Graph, prog *core.Program[V], nodes int, gd *rrg.Guidance) [][]V {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.LoopbackTCP(nodes, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	values := make([][]V, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := transports[rank]
			sched := ws.New(0, true)
			defer sched.Close()
			eng, err := core.New[V](core.Config{
				Graph: g, Comm: comm.NewComm(tr), Part: part, Sched: sched,
				RR: gd != nil, Guidance: gd, // a min/max reference run reports none
			})
			if err != nil {
				errs[rank] = err
				comm.Abort(tr)
				return
			}
			res, err := eng.Run(prog)
			if err != nil {
				errs[rank] = err
				comm.Abort(tr)
				return
			}
			values[rank] = res.Values
		}(rank)
	}
	wg.Wait()
	// Close only after every rank finished: an early Close can reset
	// connections carrying a slower peer's final reduce results.
	for _, tr := range transports {
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return values
}

// bitIdenticalIn compares two value arrays in the domain's wire words —
// the strongest possible equality for any property type.
func bitIdenticalIn[V comparable](dom core.Domain[V], a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if dom.Bits(a[i]) != dom.Bits(b[i]) {
			return false
		}
	}
	return true
}

// domainMatrix runs one typed program over both transports and returns the
// one-rank reference projected to float64.
func domainMatrix[V comparable](t *testing.T, g *graph.Graph, prog *core.Program[V]) []float64 {
	t.Helper()
	const nodes = 3
	ref, err := cluster.Execute(g, prog, cluster.Options{Nodes: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	dom := ref.Result.Dom
	gd := ref.Guidance
	inproc, err := cluster.Execute(g, prog, cluster.Options{Nodes: nodes, RR: true, Guidance: gd})
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	if !bitIdenticalIn(dom, inproc.Result.Values, ref.Result.Values) {
		t.Fatal("in-process run differs from the one-rank reference")
	}
	tcp := runTCPDomain(t, g, prog, nodes, gd)
	for rank, vals := range tcp {
		if !bitIdenticalIn(dom, vals, ref.Result.Values) {
			t.Fatalf("TCP: rank %d differs from the one-rank reference", rank)
		}
	}
	return ref.Result.Float64s()
}

// f32Close compares a projected f32 result against the f64 oracle within
// float32 rounding (relative 1e-3, infinities identified).
func f32Close(got, ref []float64) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if math.IsInf(got[i], 1) != math.IsInf(ref[i], 1) {
			return false
		}
		if math.IsInf(ref[i], 1) {
			continue
		}
		if d := math.Abs(got[i] - ref[i]); d > 1e-3*math.Max(1, math.Max(math.Abs(got[i]), math.Abs(ref[i]))) {
			return false
		}
	}
	return true
}

// u32Exact compares a projected u32 result against the f64 oracle exactly,
// mapping the f64 +Inf sentinel to U32Unreached.
func u32Exact(got, ref []float64) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		want := ref[i]
		if math.IsInf(want, 1) {
			want = float64(core.U32Unreached)
		}
		if got[i] != want {
			return false
		}
	}
	return true
}

func TestDifferentialValueDomains(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 13)
	sym := apps.Symmetrize(g)
	// NumPaths and SpMV iteration bounds keep counts inside uint32 and
	// magnitudes inside float32.
	cases := []struct {
		name string
		g    *graph.Graph
		f64  func() []float64
		f32  func() []float64
		u32  func() []float64
	}{
		{"SSSP", g,
			func() []float64 { return domainMatrix(t, g, apps.SSSP(0)) },
			func() []float64 { return domainMatrix(t, g, apps.SSSPF32(0)) },
			nil},
		{"BFS", g,
			func() []float64 { return domainMatrix(t, g, apps.BFS(0)) },
			func() []float64 { return domainMatrix(t, g, apps.BFSF32(0)) },
			func() []float64 { return domainMatrix(t, g, apps.BFSU32(0)) }},
		{"CC", sym,
			func() []float64 { return domainMatrix(t, sym, apps.CC(sym)) },
			func() []float64 { return domainMatrix(t, sym, apps.CCF32(sym)) },
			func() []float64 { return domainMatrix(t, sym, apps.CCU32(sym)) }},
		{"WP", g,
			func() []float64 { return domainMatrix(t, g, apps.WP(0)) },
			func() []float64 { return domainMatrix(t, g, apps.WPF32(0)) },
			nil},
		{"PR", g,
			func() []float64 { return domainMatrix(t, g, apps.PageRank(8)) },
			func() []float64 { return domainMatrix(t, g, apps.PageRankF32(8)) },
			nil},
		{"TR", g,
			func() []float64 { return domainMatrix(t, g, apps.TunkRank(8)) },
			func() []float64 { return domainMatrix(t, g, apps.TunkRankF32(8)) },
			nil},
		{"SpMV", g,
			func() []float64 { return domainMatrix(t, g, apps.SpMV(6)) },
			func() []float64 { return domainMatrix(t, g, apps.SpMVF32(6)) },
			nil},
		{"NumPaths", g,
			func() []float64 { return domainMatrix(t, g, apps.NumPaths(0, 6)) },
			func() []float64 { return domainMatrix(t, g, apps.NumPathsF32(0, 6)) },
			func() []float64 { return domainMatrix(t, g, apps.NumPathsU32(0, 6)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refF64 := tc.f64()
			if gotF32 := tc.f32(); !f32Close(gotF32, refF64) {
				t.Fatal("f32 domain diverged from the f64 oracle beyond float32 rounding")
			}
			if tc.u32 != nil {
				if gotU32 := tc.u32(); !u32Exact(gotU32, refF64) {
					t.Fatal("u32 domain did not match the f64 oracle exactly")
				}
			}
		})
	}
}

// TestDifferentialCompositeDomain runs the SSSPTree composite domain
// through the same matrix and validates the resulting parent pointers as a
// shortest-path tree: every reached non-root vertex's (dist, parent) must
// be witnessed by an actual in-edge from its parent, and the distances
// must match plain f32 SSSP bit-for-bit.
func TestDifferentialCompositeDomain(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 13)
	const root = 0
	prog := apps.SSSPTree(root)
	refDist := domainMatrix(t, g, apps.SSSPF32(root))

	res, err := cluster.Execute(g, prog, cluster.Options{Nodes: 3, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = domainMatrix(t, g, apps.SSSPTree(root))

	for v, dp := range res.Result.Values {
		if math.IsInf(float64(dp.Dist), 1) {
			if dp.Parent != core.NoParent {
				t.Fatalf("unreached vertex %d has parent %d", v, dp.Parent)
			}
			if !math.IsInf(refDist[v], 1) {
				t.Fatalf("vertex %d unreached in dist32 but reached in f32", v)
			}
			continue
		}
		if float64(dp.Dist) != refDist[v] {
			t.Fatalf("vertex %d: dist32 distance %v, f32 SSSP %v", v, dp.Dist, refDist[v])
		}
		if v == root {
			continue
		}
		if dp.Parent == core.NoParent {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		// The parent edge must exist and witness the distance.
		p := graph.VertexID(dp.Parent)
		witnessed := false
		ins, ws := g.InNeighbors(graph.VertexID(v)), g.InWeights(graph.VertexID(v))
		for i, u := range ins {
			if u != p {
				continue
			}
			if res.Result.Values[u].Dist+ws[i] == dp.Dist {
				witnessed = true
				break
			}
		}
		if !witnessed {
			t.Fatalf("vertex %d: parent %d does not witness distance %v", v, p, dp.Dist)
		}
	}
}
