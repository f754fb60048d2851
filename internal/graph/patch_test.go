package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// chainBatch draws one insertion batch for the chain test over a graph of
// n vertices whose edges so far are all. It returns the batch and the
// vertex count after it. Batches mix appended vertices, parallel copies of
// existing edges, self-loops, edges at the hub and signed zero weights;
// every fifth is empty.
func chainBatch(rng *rand.Rand, n int, all []Edge, hub VertexID) ([]Edge, int) {
	if rng.Intn(5) == 0 {
		return nil, n + rng.Intn(2)
	}
	n += rng.Intn(3)
	weight := func() float32 {
		switch rng.Intn(6) {
		case 0:
			return float32(math.Copysign(0, -1))
		case 1:
			return 0
		default:
			return float32(rng.Intn(9)-4) / 2
		}
	}
	k := 1 + rng.Intn(8)
	batch := make([]Edge, 0, k+3)
	for i := 0; i < k; i++ {
		batch = append(batch, Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: weight()})
	}
	switch rng.Intn(4) {
	case 0: // a parallel copy of an edge already in the graph
		e := all[rng.Intn(len(all))]
		batch = append(batch, e, Edge{Src: e.Src, Dst: e.Dst, Weight: weight()})
	case 1:
		v := VertexID(rng.Intn(n))
		batch = append(batch, Edge{Src: v, Dst: v, Weight: weight()})
	case 2:
		batch = append(batch, Edge{Src: hub, Dst: VertexID(rng.Intn(n)), Weight: weight()},
			Edge{Src: VertexID(rng.Intn(n)), Dst: hub, Weight: weight()})
	}
	return batch, n
}

// TestWithEdgesChainMatchesBuild grows one graph through a chain of
// insertion batches. After every batch the new version must equal Build
// over every edge so far through every accessor, and at the end every
// earlier version must still equal its own rebuild: versions share base
// arrays and patch rows, and none may write what another reads. The chain
// has to cross compaction at least twice and stay patched in between.
func TestWithEdgesChainMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const hub = 3
	n := 200
	all := randomEdges(rng, n, 1600)
	for i := 0; i < 40; i++ {
		all = append(all, Edge{Src: hub, Dst: VertexID(rng.Intn(n)), Weight: 1},
			Edge{Src: VertexID(rng.Intn(n)), Dst: hub, Weight: 2})
	}
	type version struct {
		g     *Graph
		n, m  int
		label string
	}
	g := MustBuild(n, all)
	versions := []version{{g, n, len(all), "base"}}
	var patched, compactions int
	for b := 0; b < 64; b++ {
		var batch []Edge
		batch, n = chainBatch(rng, n, all, hub)
		next, err := WithEdges(g, batch, n)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		all = append(all, batch...)
		switch {
		case next.out.patch != nil:
			patched++
		case g.out.patch != nil:
			compactions++
		}
		v := version{next, n, len(all), fmt.Sprintf("batch %d", b)}
		assertSameGraph(t, next, MustBuild(n, all), v.label)
		versions = append(versions, v)
		g = next
	}
	for _, v := range versions {
		assertSameGraph(t, v.g, MustBuild(v.n, all[:v.m]), v.label+" (revisited)")
	}
	if compactions < 2 || patched < 20 {
		t.Fatalf("chain made %d compactions and %d patched versions; want >= 2 and >= 20", compactions, patched)
	}
	t.Logf("%d patched versions, %d compactions", patched, compactions)
}

// TestWithEdgesPatchAllocations pins what a non-compacting batch costs in
// memory: 64 edges into a 2^18-edge graph must allocate less than one byte
// per edge of the graph. A flat rebuild allocates at least 16 B per edge
// (ids and weights in both directions).
func TestWithEdgesPatchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 1 << 14, 1 << 18
	g := MustBuild(n, randomEdges(rng, n, m))
	batch := randomEdges(rng, n, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, err := WithEdges(g, batch, n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if next.out.patch == nil || next.in.patch == nil {
		t.Fatal("a 64-edge batch compacted; the test must measure the patch path")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= m*8/8 {
		t.Fatalf("WithEdges allocated %d B for 64 edges; want < %d B (|E| x 8/8)", got, m*8/8)
	} else {
		t.Logf("WithEdges allocated %d B (%.3f B per graph edge)", got, float64(got)/m)
	}
}

// FuzzWithEdges grows a seeded graph by batches decoded from the fuzz
// input; every version must equal Build over all its edges. Each batch is
// a header byte (low 3 bits: edge count, next 2 bits: appended vertices)
// and 3 bytes per edge: source, destination and a signed weight in
// quarters. Endpoints wrap modulo the vertex count, and bytes past the
// 32nd batch are ignored, which keeps one input's rebuilds cheap.
func FuzzWithEdges(f *testing.F) {
	f.Add([]byte{0x03, 1, 2, 4, 1, 2, 4, 5, 5, 0xfc})
	f.Add([]byte{0x18, 0x07, 0, 0, 0, 1, 2, 3, 2, 1, 0, 9, 9, 9, 3, 0, 1, 4, 4, 4, 0x80, 3, 3, 3})
	f.Add([]byte{0x00, 0x00, 0x01, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(7))
		n := 24
		all := randomEdges(rng, n, 120)
		g := MustBuild(n, all)
		for b := 0; b < 32 && len(data) > 0; b++ {
			hdr := data[0]
			data = data[1:]
			n += int(hdr>>3) & 3
			var batch []Edge
			for k := int(hdr & 7); k > 0 && len(data) >= 3; k-- {
				batch = append(batch, Edge{
					Src:    VertexID(int(data[0]) % n),
					Dst:    VertexID(int(data[1]) % n),
					Weight: float32(int8(data[2])) / 4,
				})
				data = data[3:]
			}
			next, err := WithEdges(g, batch, n)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			if err := diffGraphs(next, MustBuild(n, all)); err != nil {
				t.Fatal(err)
			}
			g = next
		}
	})
}
