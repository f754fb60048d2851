package cluster_test

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/store"
)

// guidanceRun is what one run reports about its guidance.
type guidanceRun struct {
	gd         *rrg.Guidance
	preprocess bool
}

func runGuidance[V comparable](t *testing.T, g graph.View, p *core.Program[V], opt cluster.Options) guidanceRun {
	t.Helper()
	res, err := cluster.Execute(g, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return guidanceRun{res.Guidance, res.PreprocessTime > 0}
}

// TestGuidanceSharedPerGraph pins one default-root guidance per graph
// object: every arith RR run over the same graph gets the same guidance,
// and a min/max RR run (SSSP, BFS, WP) gets none and pays nothing. Over the
// heap graph the first arith run generates it and only that run pays; a
// converted .slfc file, mmap'd or out of core, arrives with it, so no run
// pays and it equals the heap graph's. An arith program with Roots still
// generates a private guidance from them, RR-off runs get none, and
// concurrent first runs over a file without the section generate once.
func TestGuidanceSharedPerGraph(t *testing.T) {
	heap := gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.slfc")
	if err := store.Write(path, heap); err != nil {
		t.Fatal(err)
	}
	open := func(path string, budget int64) *store.Graph {
		sg, err := store.OpenBudget(path, budget)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sg.Close() })
		return sg
	}
	opt := cluster.Options{Nodes: 2, Threads: 2, Stealing: true, RR: true}
	// Heap first: its first run must be the one that fills its slot.
	for _, v := range []struct {
		name string
		g    graph.View
	}{{"heap", heap}, {"mmap", open(path, 0)}, {"ooc", open(path, 1)}} {
		name, g := v.name, v.g
		runs := []guidanceRun{
			runGuidance(t, g, apps.PageRank(5), opt),
			runGuidance(t, g, apps.PageRank(3), opt),
		}
		for i, r := range runs {
			if r.gd == nil || r.gd != runs[0].gd || r.preprocess != (name == "heap" && i == 0) {
				t.Errorf("%s PageRank run %d: guidance %p (first run's %p), paid preprocessing %v", name, i, r.gd, runs[0].gd, r.preprocess)
			}
		}
		for _, mm := range []struct {
			name string
			r    guidanceRun
		}{
			{"sssp(0)", runGuidance(t, g, apps.SSSP(0), opt)},
			{"sssp(7)", runGuidance(t, g, apps.SSSP(7), opt)},
			{"bfs/u32(7)", runGuidance(t, g, apps.BFSU32(7), opt)},
			{"wp(0)", runGuidance(t, g, apps.WP(0), opt)},
		} {
			if mm.r.gd != nil || mm.r.preprocess {
				t.Errorf("%s %s: min/max RR run got guidance %p, paid preprocessing %v", name, mm.name, mm.r.gd, mm.r.preprocess)
			}
		}
		if want, _ := rrg.Shared(heap, nil); !slices.Equal(runs[0].gd.LastIter, want.LastIter) ||
			runs[0].gd.Rounds != want.Rounds || runs[0].gd.MaxLastIter != want.MaxLastIter {
			t.Errorf("%s: shared guidance differs from the heap graph's", name)
		}
		rooted := rrg.Generate(g, []graph.VertexID{7}, nil)
		if r := runGuidance(t, g, apps.NumPaths(7, 5), opt); r.gd == runs[0].gd || !r.preprocess || !slices.Equal(r.gd.LastIter, rooted.LastIter) {
			t.Errorf("%s: rooted arith program reused the shared guidance, paid nothing or is not rooted at 7", name)
		}
		off := opt
		off.RR = false
		if r := runGuidance(t, g, apps.PageRank(3), off); r.gd != nil || r.preprocess {
			t.Errorf("%s: RR-off run reported guidance", name)
		}
	}

	// The same file with the flag cleared and the section cut off.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img = img[:len(img)-(8+4*heap.NumVertices())]
	img[24] &^= 1 << 1
	bare := filepath.Join(dir, "bare.slfc")
	if err := os.WriteFile(bare, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := open(bare, 0)
	runs := make([]guidanceRun, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cluster.Execute(fresh, apps.PageRank(1+i%3), opt)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = guidanceRun{res.Guidance, res.PreprocessTime > 0}
		}(i)
	}
	wg.Wait()
	generated := 0
	for _, r := range runs {
		if r.preprocess {
			generated++
		}
		if r.gd != runs[0].gd {
			t.Errorf("concurrent runs got different guidance: %p vs %p", r.gd, runs[0].gd)
		}
	}
	if generated != 1 {
		t.Errorf("8 concurrent first runs generated guidance %d times, want 1", generated)
	}
}
