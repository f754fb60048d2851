package service_test

import (
	"slices"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/service"
)

// Every graph version a service publishes holds one default-root guidance
// in its shared slot, whatever the batch: carried across an insertion that
// keeps the default root set, generated by the first run after one that
// changes it, and after a deletion. Either way it must be exactly what a
// cold generation on that version derives, for the base graph and its
// symmetrised twin; PageRank pays preprocessing only when nothing was
// carried.
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
		for name, g := range map[string]*graph.Graph{"Graph": snap.Graph, "Sym": snap.Sym} {
			gd, fresh := rrg.Shared(g, nil)
			want := rrg.Generate(g, rrg.DefaultRoots(g), nil)
			if fresh || !slices.Equal(gd.LastIter, want.LastIter) || !slices.Equal(gd.Level, want.Level) ||
				gd.Rounds != want.Rounds || gd.MaxLastIter != want.MaxLastIter {
				t.Errorf("%s: %s's shared guidance is missing (fresh %v) or differs from the default-root guidance", step.name, name, fresh)
			}
		}
	}
}
