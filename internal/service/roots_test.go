package service

import (
	"slices"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// The deletion fallback regenerates guidance from scratch, so it must also
// re-derive the root set on the mutated graph: a batch that deletes an edge
// and gives a pinned source vertex its first in-edge leaves that vertex
// reachable, and keeping it a level-0 root would understate its
// out-neighbours' LastIter. (TestDeletionFallbackMatchesCold checks the
// served values; this pins the root set itself, which values only betray
// once "finish early" fires.)
func TestDeletionFallbackRederivesRoots(t *testing.T) {
	g0 := gen.Uniform(250, 1000, 4, 23)
	svc, err := New(g0, Config{Nodes: 1, Threads: 1, Sessions: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("pr", "f64", 0, 10); err != nil {
		t.Fatal(err)
	}
	pinned := svc.Snapshot().Programs[ProgramID("pr", "f64")].roots
	if len(pinned) < 2 {
		t.Fatal("test graph has no source vertex among the default roots")
	}
	source := pinned[1]
	gone := g0.Edges(nil)[0]
	snap, err := svc.Apply(&Batch{
		Deletes: []graph.Edge{{Src: gone.Src, Dst: gone.Dst}},
		Adds:    []graph.Edge{{Src: 0, Dst: source, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Programs[ProgramID("pr", "f64")].roots
	if slices.Contains(got, source) {
		t.Fatalf("vertex %d gained an in-edge but is still a guidance root", source)
	}
	if want := rrg.DefaultRoots(snap.Graph); !slices.Equal(got, want) {
		t.Fatalf("fallback roots %v, a cold run on the mutated graph derives %v", got, want)
	}
}
