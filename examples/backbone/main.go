// Backbone: network-design analytics on a weighted mesh. Builds the
// minimum spanning backbone of a datacentre-style topology with distributed
// Borůvka, measures how clustered the full mesh is (triangle count and
// k-core decomposition), and sizes the densest switch group with the
// core-ordered clique heuristic — the comparison-class analytics of the
// paper's Table 1 that do not fit the vertex-property Program form.
//
//	go run ./examples/backbone
package main

import (
	"fmt"
	"log"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

func main() {
	// A 48x32 grid with random link costs plus an R-MAT overlay acts as a
	// leaf-spine fabric with cross-links.
	mesh := gen.Grid(48, 32, 100, 7)
	overlay := gen.RMAT(mesh.NumVertices(), 4096, gen.DefaultRMAT, 100, 7)
	edges := mesh.Edges(nil)
	edges = overlay.Edges(edges)
	g, err := graph.Build(mesh.NumVertices(), edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabric: %v\n", g)

	opt := cluster.Options{Nodes: 4, Threads: 2}

	// 1. Minimum spanning backbone: the cheapest link set that keeps every
	// switch reachable.
	forest, err := apps.MST(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backbone: %d links, total cost %.0f (%d Borůvka rounds)\n",
		len(forest.Edges), forest.Weight, forest.Rounds)

	// 2. Redundancy of the full fabric: triangles indicate alternate
	// 2-hop detours around any failed link.
	tri, err := apps.TriangleCount(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detour triangles: %d\n", tri.Triangles)

	// 3. k-core decomposition: how deeply meshed the fabric stays as
	// low-degree leaves peel away.
	cores, err := apps.KCore(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	maxCore := uint32(0)
	for _, c := range cores {
		if c > maxCore {
			maxCore = c
		}
	}
	inMax := 0
	for _, c := range cores {
		if c == maxCore {
			inMax++
		}
	}
	fmt.Printf("max coreness: %d (%d switches in the innermost core)\n", maxCore, inMax)

	// 4. Densest switch group: a large clique is a candidate full-mesh pod.
	cl, err := apps.MaxCliqueApprox(g, 32, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("largest full-mesh pod found: %d switches (k-core bound %d): %v\n",
		len(cl.Members), cl.CoreBound, cl.Members)
}
