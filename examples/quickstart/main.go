// Quickstart: build a small graph, run PageRank on a 4-node simulated SLFE
// cluster with redundancy reduction, and print the top-ranked vertices.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func main() {
	// An R-MAT graph standing in for a small social network.
	g := gen.RMAT(10_000, 120_000, gen.DefaultRMAT, 1, 42)
	fmt.Printf("graph: %v\n", g)

	// Run 30 PageRank iterations on 4 simulated nodes. RR: true enables
	// SLFE's "finish early" optimisation for arithmetic programs.
	res, err := cluster.Execute(g, apps.PageRank(30), cluster.Options{
		Nodes: 4,
		RR:    true,
	})
	if err != nil {
		log.Fatal(err)
	}

	ranks := apps.PageRankScores(g, res.Result.Values)
	type ranked struct {
		v    graph.VertexID
		rank float64
	}
	all := make([]ranked, len(ranks))
	for v, r := range ranks {
		all[v] = ranked{graph.VertexID(v), r}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rank > all[j].rank })

	fmt.Printf("ran %d iterations in %v (+%v preprocessing)\n",
		res.Result.Iterations, res.Elapsed, res.PreprocessTime)
	fmt.Printf("early-converged vertices: %d of %d\n", res.Result.ECCount, g.NumVertices())
	fmt.Println("top 5 by PageRank:")
	for i := 0; i < 5; i++ {
		fmt.Printf("  vertex %-6d rank %.4f\n", all[i].v, all[i].rank)
	}
}
