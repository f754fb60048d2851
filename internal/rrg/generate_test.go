package rrg_test

// These tests compare Generate against a serial reference and run it over
// .slfc views. They live outside package rrg because store imports rrg.

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/store"
	"slfe/internal/ws"
)

// referenceGuidance is a sequential, obviously-correct Algorithm 1.
func referenceGuidance(g *graph.Graph, roots []graph.VertexID) ([]uint32, []uint32) {
	n := g.NumVertices()
	level := make([]uint32, n)
	for i := range level {
		level[i] = rrg.Unreached
	}
	var queue []graph.VertexID
	for _, r := range roots {
		if int(r) < n && level[r] == rrg.Unreached {
			level[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if level[u] == rrg.Unreached {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	last := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			if level[u] != rrg.Unreached && level[u]+1 > last[v] {
				last[v] = level[u] + 1
			}
		}
	}
	return level, last
}

// Property: the parallel implementation agrees with the sequential
// reference on random graphs and random root sets.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		g := gen.Uniform(n, int64(rng.Intn(1500)), 1, seed)
		nRoots := rng.Intn(3) + 1
		roots := make([]graph.VertexID, nRoots)
		for i := range roots {
			roots[i] = graph.VertexID(rng.Intn(n))
		}
		gd := rrg.Generate(g, roots, nil)
		wantLevel, wantLast := referenceGuidance(g, roots)
		for v := 0; v < n; v++ {
			if gd.Level[v] != wantLevel[v] || gd.LastIter[v] != wantLast[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateMatchesSerialDefinition pins the frontier-walking parallel
// BFS to the serial definition — every field of the guidance, not just the
// two arrays — on a skewed and a high-diameter input, over the heap CSR and
// the mmap'd and out-of-core .slfc views, with 1 and 4 threads.
func TestGenerateMatchesSerialDefinition(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat": gen.RMAT(3000, 24000, gen.DefaultRMAT, 16, 5),
		"grid": gen.Grid(40, 55, 8, 7),
	} {
		path := filepath.Join(t.TempDir(), name+".slfc")
		if err := store.Write(path, g); err != nil {
			t.Fatal(err)
		}
		mm, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		ooc, err := store.OpenBudget(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ooc.Close()

		for rootsName, roots := range map[string][]graph.VertexID{
			"default": rrg.DefaultRoots(g),
			"single":  {graph.VertexID(g.NumVertices() / 2)},
		} {
			wantLevel, wantLast := referenceGuidance(g, roots)
			var wantRounds uint32
			for _, l := range wantLevel {
				if l != rrg.Unreached {
					wantRounds = max(wantRounds, l)
				}
			}
			wantMax := slices.Max(wantLast)
			for viewName, v := range map[string]graph.View{"heap": g, "mmap": mm, "ooc": ooc} {
				for _, threads := range []int{1, 4} {
					sched := ws.New(threads, true)
					gd := rrg.Generate(v, roots, sched)
					sched.Close()
					if !slices.Equal(gd.Level, wantLevel) || !slices.Equal(gd.LastIter, wantLast) ||
						gd.Rounds != wantRounds || gd.MaxLastIter != wantMax {
						t.Errorf("%s/%s/%s/%d threads: guidance differs from the serial definition (rounds %d want %d, max last-iter %d want %d)",
							name, rootsName, viewName, threads, gd.Rounds, wantRounds, gd.MaxLastIter, wantMax)
					}
				}
			}
		}
	}
}
