// Components: connected components on a clustered graph, executed over a
// genuinely distributed transport — every worker runs the SLFE engine
// against a real TCP mesh on localhost, with the framing, sockets and bytes
// a multi-machine deployment would see.
//
//	go run ./examples/components
package main

import (
	"fmt"
	"log"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/gen"
)

const nodes = 4

func main() {
	// Three communities with no bridges: the engine must find all three.
	g := apps.Symmetrize(gen.Clustered(30_000, 3, 0, 11))
	fmt.Printf("graph: %v\n", g)

	start := time.Now()
	transports, err := comm.LoopbackTCP(nodes, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	// ExecuteOver runs one engine per transport and closes the mesh once
	// every rank has finished.
	res, err := cluster.ExecuteOver(g, apps.CC(g), cluster.Options{Stealing: true}, transports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sent %d messages / %d bytes over TCP\n", res.Comm.MessagesSent, res.Comm.BytesSent)

	// Count components from rank 0's (synchronised) labels.
	labels := map[float64]int{}
	for _, l := range res.Result.Values {
		labels[l]++
	}
	fmt.Printf("found %d weakly connected components in %v over %d TCP workers\n",
		len(labels), time.Since(start), nodes)
	for label, size := range labels {
		if size > 100 {
			fmt.Printf("  component rooted at vertex %.0f: %d members\n", label, size)
		}
	}
}
