package service_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/service"
)

// Every base graph version a service publishes holds one default-root
// guidance in its shared slot, whatever the batch: carried across an
// insertion that keeps the default root set, generated by the first run
// after one that changes it, and after a deletion. Either way it must be
// exactly what a cold generation on that version derives, and PageRank pays
// preprocessing only when nothing was carried. The symmetrised twin serves
// only CC, a min/max program that reads no guidance, so its slot stays
// empty.
func TestEveryVersionSharesDefaultGuidance(t *testing.T) {
	g0 := gen.Uniform(250, 1000, 4, 23)
	svc, err := service.New(g0, service.Config{Nodes: 1, Threads: 1, Sessions: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("pr", "f64", 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("cc", "u32", 0, 0); err != nil {
		t.Fatal(err)
	}

	// Two fed vertices (an edge between them keeps every root set) and a
	// source with out-edges (an edge into it changes the base root set).
	var fed []graph.VertexID
	source := graph.VertexID(0)
	for v := graph.VertexID(1); int(v) < g0.NumVertices(); v++ {
		switch {
		case g0.InDegree(v) > 0:
			fed = append(fed, v)
		case g0.OutDegree(v) > 0 && source == 0:
			source = v
		}
	}
	if len(fed) < 2 || source == 0 {
		t.Fatal("test graph lacks fed vertices or a source")
	}
	gone := g0.Edges(nil)[0]

	for _, step := range []struct {
		name    string
		b       *service.Batch
		carried bool
	}{
		{"interior insert", &service.Batch{Adds: []graph.Edge{{Src: fed[0], Dst: fed[1], Weight: 1}}}, true},
		{"source gains an in-edge", &service.Batch{Adds: []graph.Edge{{Src: 0, Dst: source, Weight: 1}}}, false},
		{"deletion", &service.Batch{Deletes: []graph.Edge{{Src: gone.Src, Dst: gone.Dst}}}, false},
	} {
		snap, err := svc.Apply(step.b)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if paid := snap.Programs[service.ProgramID("pr", "f64")].Outcome.Preprocess > 0; paid == step.carried {
			t.Errorf("%s: PageRank paid preprocessing %v, want %v", step.name, paid, !step.carried)
		}
		g := snap.Graph
		gd, fresh := rrg.Shared(g, nil)
		want := rrg.Generate(g, rrg.DefaultRoots(g), nil)
		if fresh || !slices.Equal(gd.LastIter, want.LastIter) || !slices.Equal(gd.Level, want.Level) ||
			gd.Rounds != want.Rounds || gd.MaxLastIter != want.MaxLastIter {
			t.Errorf("%s: the shared guidance is missing (fresh %v) or differs from the default-root guidance", step.name, fresh)
		}
		if _, fresh := rrg.Shared(snap.Sym, nil); !fresh {
			t.Errorf("%s: the symmetrised graph's shared slot was filled, want it empty", step.name)
		}
	}
}

// A service whose programs are all min/max carries no guidance: a min/max
// run reads none, so each insertion leaves the new version's shared slot
// empty, for the base graph and its symmetrised twin. An arith program
// registered later generates on the version it runs over and matches a cold
// run bit for bit.
func TestMinMaxOnlyServiceCarriesNoGuidance(t *testing.T) {
	g0 := gen.Uniform(250, 1000, 4, 29)
	edges := g0.Edges(nil)
	svc, err := service.New(g0, service.Config{Nodes: 1, Threads: 2, Sessions: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, id := range [][2]string{{"sssp", "dist32"}, {"cc", "u32"}} {
		if _, err := svc.Register(id[0], id[1], 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	var snap *service.Snapshot
	for batch := 0; batch < 3; batch++ {
		b := &service.Batch{}
		for i := 0; i < 20; i++ {
			b.Adds = append(b.Adds, graph.Edge{Src: graph.VertexID(rng.Intn(250)), Dst: graph.VertexID(rng.Intn(250)), Weight: 1})
		}
		edges = append(edges, b.Adds...)
		if snap, err = svc.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for name, g := range map[string]*graph.Graph{"Graph": snap.Graph, "Sym": snap.Sym} {
			if _, fresh := rrg.Shared(g, nil); !fresh {
				t.Errorf("batch %d: %s's shared slot was filled, want it empty", batch, name)
			}
		}
	}

	snap, err = svc.Register("pr", "f64", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cluster.Execute(graph.MustBuild(snap.Graph.NumVertices(), edges), apps.PageRank(10),
		cluster.Options{Nodes: 1, Threads: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	got, want := snap.Programs[service.ProgramID("pr", "f64")].Outcome.Values, cold.Result.Float64s()
	if len(got) != len(want) {
		t.Fatalf("PageRank has %d values, want %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: registered PageRank %g, cold %g", v, got[v], want[v])
		}
	}
}
