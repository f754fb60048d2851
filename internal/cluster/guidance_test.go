package cluster_test

import (
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
// object: arith and min/max programs over the same heap or mmap'd graph all
// get the guidance the first RR run generated, and only that run pays for
// it. An arith program with Roots still generates a private guidance from
// them, RR-off runs get none, and concurrent first runs generate once.
func TestGuidanceSharedPerGraph(t *testing.T) {
	heap := gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 3)
	path := filepath.Join(t.TempDir(), "g.slfc")
	if err := store.Write(path, heap); err != nil {
		t.Fatal(err)
	}
	open := func() *store.Graph {
		sg, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sg.Close() })
		return sg
	}
	opt := cluster.Options{Nodes: 2, Threads: 2, Stealing: true, RR: true}
	for name, g := range map[string]graph.View{"heap": heap, "mmap": open()} {
		runs := []guidanceRun{
			runGuidance(t, g, apps.PageRank(5), opt),
			runGuidance(t, g, apps.SSSP(0), opt),
			runGuidance(t, g, apps.SSSP(7), opt),
			runGuidance(t, g, apps.BFSU32(7), opt),
			runGuidance(t, g, apps.WP(0), opt),
		}
		for i, r := range runs {
			if r.gd != runs[0].gd || r.preprocess != (i == 0) {
				t.Errorf("%s run %d: guidance %p (first run's %p), paid preprocessing %v", name, i, r.gd, runs[0].gd, r.preprocess)
			}
		}
		rooted := rrg.Generate(g, []graph.VertexID{7}, nil)
		if r := runGuidance(t, g, apps.NumPaths(7, 5), opt); r.gd == runs[0].gd || !r.preprocess || !slices.Equal(r.gd.LastIter, rooted.LastIter) {
			t.Errorf("%s: rooted arith program reused the shared guidance, paid nothing or is not rooted at 7", name)
		}
		off := opt
		off.RR = false
		if r := runGuidance(t, g, apps.SSSP(7), off); r.gd != nil || r.preprocess {
			t.Errorf("%s: RR-off run reported guidance", name)
		}
	}

	fresh := open()
	runs := make([]guidanceRun, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cluster.Execute(fresh, apps.SSSP(graph.VertexID(i)), opt)
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
