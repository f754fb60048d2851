// Roadtrip: shortest paths and widest (maximum-capacity) paths on a
// weighted grid standing in for a road network — the min/max aggregation
// class, where the paper's SLFE "starts late" (this engine does not: it
// never paid here, see the README).
//
//	go run ./examples/roadtrip
package main

import (
	"fmt"
	"log"
	"math"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

const (
	rows = 120
	cols = 120
)

func main() {
	// A 120x120 road grid; weights 1..9 are travel times (or lane
	// capacities for the widest-path query).
	g := gen.Grid(rows, cols, 9, 7)
	fmt.Printf("road network: %v\n", g)
	start := graph.VertexID(0)            // north-west corner
	dest := graph.VertexID(rows*cols - 1) // south-east corner

	// SSSP on 4 simulated nodes.
	sssp, err := cluster.Execute(g, apps.SSSP(start), cluster.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fastest route %d -> %d takes %.0f minutes (%d supersteps, %v)\n",
		start, dest, sssp.Result.Values[dest], sssp.Result.Iterations, sssp.Elapsed)

	// The same query over the composite dist32 value domain: each vertex
	// carries (distance, predecessor) in one 8-byte wire word, so the run
	// returns an actual shortest-path tree — the turn-by-turn route, not
	// just its length.
	tree, err := cluster.Execute(g, apps.SSSPTree(start), cluster.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	route := []graph.VertexID{dest}
	for v := dest; v != start; {
		p := tree.Result.Values[v].Parent
		if p == core.NoParent || len(route) > rows*cols {
			log.Fatalf("broken shortest-path tree at intersection %d", v)
		}
		v = graph.VertexID(p)
		route = append(route, v)
	}
	fmt.Printf("turn-by-turn route has %d intersections (same %.0f minutes: %v)\n",
		len(route), float64(tree.Result.Values[dest].Dist),
		float64(tree.Result.Values[dest].Dist) == sssp.Result.Values[dest])

	// Widest path: the best bottleneck capacity from the same corner.
	wp, err := cluster.Execute(g, apps.WP(start), cluster.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("widest route %d -> %d sustains capacity %.0f\n", start, dest, wp.Result.Values[dest])

	// Sanity: every reachable intersection has a finite travel time.
	unreachable := 0
	for _, d := range sssp.Result.Values {
		if math.IsInf(d, 1) {
			unreachable++
		}
	}
	fmt.Printf("unreachable intersections: %d\n", unreachable)
}
