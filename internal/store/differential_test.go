// Storage differential oracle: every registered application, in every one
// of its value domains, must produce bit-identical results whether the
// engine reads the graph from the heap CSR, from the mmap'd SLFC file, or
// through the out-of-core pread path under a memory budget. The engine is
// storage-oblivious by construction (graph.View), so any divergence here is
// a decode bug in the store, not an algorithm bug.
package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
)

// viewModes writes g to a temp SLFC file and opens it in every access mode:
// "mmap" (default open, which keeps every block it decodes; pread fallback
// off Linux), "bytes" (OpenBytes of the file's image), "partial" (mapped
// under a budget that keeps 3/8 of the decoded adjacency: the in-ids, in
// whole or in part, perhaps part of the in-weights, and no out-block) and
// "ooc" (budget of one byte forces out-of-core block streaming).
func viewModes(t *testing.T, g *graph.Graph) map[string]*Graph {
	t.Helper()
	p := filepath.Join(t.TempDir(), "g.slfc")
	if err := Write(p, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	mm, err := Open(p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	oc, err := OpenBudget(p, 1)
	if err != nil {
		t.Fatalf("OpenBudget: %v", err)
	}
	if !oc.OutOfCore() {
		t.Fatal("budget of 1 byte did not force out-of-core mode")
	}
	img, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	pt, err := OpenBudget(p, int64(len(img))+mm.InCache().Cap*3/8)
	if err != nil {
		t.Fatalf("OpenBudget: %v", err)
	}
	t.Cleanup(func() { mm.Close(); oc.Close(); pt.Close() })
	return map[string]*Graph{"mmap": mm, "bytes": rb, "partial": pt, "ooc": oc}
}

// execOn runs one registered application over a view exactly as slfe-run
// does (symmetrising first when the app needs it) and returns the projected
// values.
func execOn(t *testing.T, entry apps.RunnableApp, v graph.View, root graph.VertexID, iters int) []float64 {
	t.Helper()
	runG := v
	if entry.NeedsSym {
		runG = apps.Symmetrize(v)
	}
	out, err := entry.Build(root, iters).Execute(runG, cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatalf("%s/%s: %v", entry.Key, entry.Domain, err)
	}
	return out.Values
}

func bitsEqual(a, b []float64) bool {
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

// patchedTwin rebuilds g as a patched version: Build over all but its last
// 10% of edges, then graph.WithEdges re-adding those in batches of 4. It
// fails t unless the final version is patched, which shows as a list the
// last batch did not touch still aliasing its parent's storage (a
// compaction copies every list).
func patchedTwin(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	edges := g.Edges(nil)
	keep := len(edges) - len(edges)/10
	cur := graph.MustBuild(g.NumVertices(), edges[:keep])
	var prev *graph.Graph
	var batch []graph.Edge
	for i := keep; i < len(edges); i += len(batch) {
		batch = edges[i:min(i+4, len(edges))]
		next, err := graph.WithEdges(cur, batch, g.NumVertices())
		if err != nil {
			t.Fatalf("WithEdges: %v", err)
		}
		prev, cur = cur, next
	}
	touched := map[graph.VertexID]bool{}
	for _, e := range batch {
		touched[e.Src] = true
	}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if a, b := prev.OutNeighbors(v), cur.OutNeighbors(v); !touched[v] && len(a) > 0 && &a[0] == &b[0] {
			return cur
		}
	}
	t.Fatal("no list aliases the parent's: the last batch compacted, and the patched view needs a patched version")
	return nil
}

// TestDifferentialStorageModes runs the full application × domain registry
// against heap, mmap'd (every block kept, or 3/8 of the decoded adjacency),
// out-of-core and patched-heap views of the same graph. The patched view must also write the same SLFC bytes as the graph
// it equals.
func TestDifferentialStorageModes(t *testing.T) {
	heap := gen.RMAT(400, 3200, gen.DefaultRMAT, 8, 17) // varint weights
	views := viewModes(t, heap)
	patched := patchedTwin(t, heap)
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "heap.slfc"), heap); err != nil {
		t.Fatal(err)
	}
	if err := Write(filepath.Join(dir, "patched.slfc"), patched); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(filepath.Join(dir, "heap.slfc"))
	b, errB := os.ReadFile(filepath.Join(dir, "patched.slfc"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("patched graph wrote different SLFC bytes (%v, %v)", errA, errB)
	}
	const root, iters = 0, 6
	for _, entry := range apps.Runnables() {
		entry := entry
		t.Run(entry.Key+"/"+entry.Domain, func(t *testing.T) {
			ref := execOn(t, entry, heap, root, iters)
			if got := execOn(t, entry, patched, root, iters); !bitsEqual(got, ref) {
				t.Fatal("patched-heap view diverged from heap reference")
			}
			for mode, sg := range views {
				if got := execOn(t, entry, sg, root, iters); !bitsEqual(got, ref) {
					t.Fatalf("%s view diverged from heap reference", mode)
				}
			}
		})
	}
}

// TestDifferentialWeightModes repeats the PageRank and SSSP oracles on
// graphs exercising the other two weight encodings: const-1 (no weight
// section) and fractional (raw f32 section).
func TestDifferentialWeightModes(t *testing.T) {
	for name, heap := range map[string]*graph.Graph{
		"const1": gen.RMAT(300, 2400, gen.DefaultRMAT, 1, 19),
		"rawf32": fracWeights(gen.RMAT(300, 2400, gen.DefaultRMAT, 16, 23)),
	} {
		heap := heap
		t.Run(name, func(t *testing.T) {
			views := viewModes(t, heap)
			for _, key := range []string{"pr", "sssp"} {
				entry, ok := apps.LookupRunnable(key, "f64")
				if !ok {
					t.Fatalf("app %s/f64 not registered", key)
				}
				ref := execOn(t, entry, heap, 0, 6)
				for mode, sg := range views {
					if got := execOn(t, entry, sg, 0, 6); !bitsEqual(got, ref) {
						t.Fatalf("%s: %s view diverged from heap reference", key, mode)
					}
				}
			}
		})
	}
}

// TestAdjacencyListsAscend checks the order push supersteps binary-search
// (core's computePushChunk): every out- and in-list ascends, in a heap graph
// built from unsorted edges, a graph.WithEdges-patched one, and the .slfc of
// it read mapped and out of core.
func TestAdjacencyListsAscend(t *testing.T) {
	heap := gen.RMAT(400, 3200, gen.DefaultRMAT, 8, 17)
	views := map[string]graph.View{"heap": heap, "patched": patchedTwin(t, heap)}
	for mode, sg := range viewModes(t, heap) {
		if mode != "bytes" {
			views[mode] = sg
		}
	}
	for name, v := range views {
		cur := v.Cursor()
		for u := graph.VertexID(0); int(u) < v.NumVertices(); u++ {
			for dir, ids := range map[string][]graph.VertexID{"out": cur.OutNeighbors(u), "in": cur.InNeighbors(u)} {
				if !slices.IsSorted(ids) {
					t.Fatalf("%s: %s-list of %d does not ascend: %v", name, dir, u, ids)
				}
			}
		}
	}
}
