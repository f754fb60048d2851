// Differential transport test: every registered application must produce
// bit-identical results over the in-process transport and over a real TCP
// mesh, across all delta-sync strategies, and equal to the one-rank run,
// which exchanges nothing. The engine is transport-, strategy- and
// rank-count-agnostic by contract; this is the contract's enforcement.
package core_test

import (
	"math"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// diffApps lists the Program-shaped registered applications (the whole-
// graph analytics — triangles, MST, clique, diameter — are compositions of
// these and run through the same engine).
func diffApps(g *graph.Graph) map[string]struct {
	prog *core.Program[float64]
	g    *graph.Graph
} {
	sym := apps.Symmetrize(g)
	return map[string]struct {
		prog *core.Program[float64]
		g    *graph.Graph
	}{
		"SSSP":     {apps.SSSP(0), g},
		"BFS":      {apps.BFS(0), g},
		"CC":       {apps.CC(sym), sym},
		"WP":       {apps.WP(0), g},
		"PR":       {apps.PageRank(8), g},
		"TR":       {apps.TunkRank(8), g},
		"SpMV":     {apps.SpMV(6), g},
		"NumPaths": {apps.NumPaths(0, 6), g},
	}
}

func bitIdentical(a, b []core.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDifferentialTransportsAndStrategies is the engine's core contract
// check: for every registered application, a multi-rank run over both the
// in-process transport and a real TCP mesh must produce values
// bit-identical to the one-rank run.
func TestDifferentialTransportsAndStrategies(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 13)
	for name, app := range diffApps(g) {
		app := app
		t.Run(name, func(t *testing.T) {
			// Reference: the one-rank run, which shares no sync code with
			// the multi-rank exchange. Its guidance is reused so every
			// variant sees identical redundancy-reduction decisions.
			ref, err := cluster.Execute(app.g, app.prog, cluster.Options{Nodes: 1, RR: true})
			if err != nil {
				t.Fatal(err)
			}
			gd := ref.Guidance
			inproc, err := cluster.Execute(app.g, app.prog, cluster.Options{
				Nodes: nodes, RR: true, Guidance: gd,
			})
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			if !bitIdentical(inproc.Result.Values, ref.Result.Values) {
				t.Fatal("in-process run differs from the one-rank reference")
			}
			tcp := runTCPDomain(t, app.g, app.prog, nodes, gd)
			for rank, vals := range tcp {
				if !bitIdentical(vals, ref.Result.Values) {
					t.Fatalf("TCP: rank %d differs from the one-rank reference", rank)
				}
			}
		})
	}
}
