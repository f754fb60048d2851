// Influence: PageRank and TunkRank on a social-network-style R-MAT graph
// (the pokec proxy from the paper's Table 4), comparing runs with and
// without redundancy reduction — the "finish early" class.
//
//	go run ./examples/influence
package main

import (
	"fmt"
	"log"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/metrics"
)

func main() {
	d, err := gen.ByName("PK")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Proxy(200) // 1/200 of pokec
	fmt.Printf("social graph (%s proxy): %v\n", d.FullName, g)

	const iters = 50
	for _, rr := range []bool{false, true} {
		res, err := cluster.Execute(g, apps.PageRank(iters), cluster.Options{Nodes: 4, RR: rr})
		if err != nil {
			log.Fatal(err)
		}
		m := metrics.Merge(res.PerWorker)
		label := "w/o RR"
		if rr {
			label = "w/ RR "
		}
		fmt.Printf("PageRank %s: %v total, %d computations, %d early-converged vertices\n",
			label, res.Elapsed, m.Computations(), res.Result.ECCount)
	}

	// TunkRank finds influencers: accounts whose followers are themselves
	// influential.
	res, err := cluster.Execute(g, apps.TunkRank(iters), cluster.Options{Nodes: 4, RR: true})
	if err != nil {
		log.Fatal(err)
	}
	infl := apps.TunkRankScores(g, res.Result.Values)
	best, bestV := 0.0, 0
	for v, s := range infl {
		if s > best {
			best, bestV = s, v
		}
	}
	fmt.Printf("most influential account: vertex %d (influence %.2f, %d followers)\n",
		bestV, best, g.InDegree(uint32(bestV)))
}
