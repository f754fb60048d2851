// Fraud: belief propagation on a payments-style network. A handful of
// accounts carry known labels (confirmed fraudsters and verified users, as
// log-odds priors); mean-field BP diffuses the evidence over transaction
// edges until every account holds a fraud belief. The run demonstrates the
// guidance-root rule for evidence-driven arithmetic programs: the labelled
// accounts are the program's Roots, so the RR guidance is rooted there and
// "finish early" freezes a region only after all evidence that can reach it
// has arrived.
//
//	go run ./examples/fraud
package main

import (
	"fmt"
	"log"
	"sort"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

func main() {
	// A delicious-proxy graph stands in for a payments network: skewed
	// degrees, a few hubs (merchants), many leaves (one-off accounts).
	d, err := gen.ByName("DI")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Proxy(2000)
	fmt.Printf("transaction graph (%s proxy): %v\n", d.FullName, g)

	// Known labels: every 401st account is a confirmed fraudster, every
	// 599th a verified good actor. Log-odds priors of +/-2.5 ~= 92%.
	var evidence []graph.VertexID
	prior := func(_ graph.View, v graph.VertexID) core.Value {
		switch {
		case v%401 == 0:
			return 2.5
		case v%599 == 0:
			return -2.5
		default:
			return 0
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if p := prior(g, graph.VertexID(v)); p != 0 {
			evidence = append(evidence, graph.VertexID(v))
		}
	}
	fmt.Printf("labelled accounts: %d of %d\n", len(evidence), g.NumVertices())

	// Couple weakly relative to the hub degrees so merchant accounts
	// aggregate evidence without saturating every belief.
	const coupling = 0.02
	const iters = 40
	bp := apps.BeliefPropagation(prior, coupling, iters)
	bp.Roots = evidence
	for _, rr := range []bool{false, true} {
		res, err := cluster.Execute(g, bp, cluster.Options{Nodes: 4, RR: rr, Stealing: true})
		if err != nil {
			log.Fatal(err)
		}
		m := metrics.Merge(res.PerWorker)
		label := "w/o RR"
		if rr {
			label = "w/ RR "
		}
		fmt.Printf("BP %s: %v, %d computations, %d early-converged\n",
			label, res.Elapsed, m.Computations(), res.Result.ECCount)
		if !rr {
			continue
		}

		// Rank unlabelled accounts by fraud belief.
		type suspect struct {
			v graph.VertexID
			b core.Value
		}
		var suspects []suspect
		for v, b := range res.Result.Values {
			if prior(g, graph.VertexID(v)) == 0 && b > 0 {
				suspects = append(suspects, suspect{graph.VertexID(v), b})
			}
		}
		sort.Slice(suspects, func(i, j int) bool { return suspects[i].b > suspects[j].b })
		fmt.Printf("unlabelled accounts with positive fraud belief: %d\n", len(suspects))
		for i := 0; i < 5 && i < len(suspects); i++ {
			fmt.Printf("  suspect #%d: account %d (belief %.3f, %d counterparties)\n",
				i+1, suspects[i].v, suspects[i].b, g.InDegree(suspects[i].v))
		}
	}
}
