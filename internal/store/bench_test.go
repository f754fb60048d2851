package store

import (
	"path/filepath"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

var benchSink uint64

// BenchmarkCursorScan walks every adjacency list of one direction through a
// fresh cursor — the loop the pull kernels run, with no compute in it — and
// reports the decode rate in Medges/s. R-MAT 2^15/2^19 with weights 1..64
// (the repo benchmark's G-batch shape at a quarter of its size).
func BenchmarkCursorScan(b *testing.B) {
	heap := gen.RMAT(1<<15, 1<<19, gen.DefaultRMAT, 64, 1)
	p := filepath.Join(b.TempDir(), "g.slfc")
	if err := Write(p, heap); err != nil {
		b.Fatal(err)
	}
	mm, err := Open(p)
	if err != nil {
		b.Fatal(err)
	}
	defer mm.Close()
	oc, err := OpenBudget(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer oc.Close()

	for _, dir := range []string{"in", "out"} {
		for _, read := range []string{"ids", "ids+weights"} {
			for _, mode := range []struct {
				name string
				g    *Graph
			}{{"mmap", mm}, {"ooc", oc}} {
				in, weights, g := dir == "in", read == "ids+weights", mode.g
				b.Run(dir+"/"+read+"/"+mode.name, func(b *testing.B) {
					var sum uint64
					var wsum float32
					for i := 0; i < b.N; i++ {
						cur := g.Cursor()
						ids, ws := cur.OutNeighbors, cur.OutWeights
						if in {
							ids, ws = cur.InNeighbors, cur.InWeights
						}
						for v := 0; v < g.NumVertices(); v++ {
							for _, u := range ids(graph.VertexID(v)) {
								sum += uint64(u)
							}
							if weights {
								for _, w := range ws(graph.VertexID(v)) {
									wsum += w
								}
							}
						}
					}
					benchSink += sum + uint64(wsum)
					b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
				})
			}
		}
	}
}
