package cluster_test

import (
	"errors"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/rrg"
)

func TestExecuteMultiWorkerEqualsSingle(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 4)
	single, err := cluster.Execute(g, apps.SSSP(0), cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 4, 8} {
		multi, err := cluster.Execute(g, apps.SSSP(0), cluster.Options{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for v := range single.Result.Values {
			if single.Result.Values[v] != multi.Result.Values[v] {
				t.Fatalf("nodes=%d: vertex %d differs", nodes, v)
			}
		}
		if len(multi.PerWorker) != nodes {
			t.Fatalf("PerWorker = %d, want %d", len(multi.PerWorker), nodes)
		}
		if nodes > 1 && multi.Comm.BytesSent == 0 {
			t.Error("no communication recorded on multi-node run")
		}
	}
}

func TestExecuteReusesGuidance(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 4, 5)
	first, err := cluster.Execute(g, apps.PageRank(5), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Guidance == nil || first.PreprocessTime == 0 {
		t.Fatal("guidance not generated")
	}
	second, err := cluster.Execute(g, apps.PageRank(5), cluster.Options{Nodes: 2, RR: true, Guidance: first.Guidance})
	if err != nil {
		t.Fatal(err)
	}
	if second.PreprocessTime != 0 {
		t.Error("reused guidance still charged preprocessing time")
	}
	for v := range first.Result.Values {
		if first.Result.Values[v] != second.Result.Values[v] {
			t.Fatal("guidance reuse changed results")
		}
	}
}

// A program's Roots override the default guidance roots: on a path,
// NumPaths from vertex 10 leaves 0..9 unreached and its guidance propagates
// for 39 rounds, not 49.
func TestExecuteGuidanceRootsOverride(t *testing.T) {
	g := gen.Path(50)
	res, err := cluster.Execute(g, apps.NumPaths(10, 60), cluster.Options{Nodes: 1, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guidance.Rounds != 39 || res.Guidance.Reached(9) {
		t.Fatalf("guidance rounds = %d (vertex 9 reached: %v), want 39 from root 10", res.Guidance.Rounds, res.Guidance.Reached(9))
	}
}

func TestExecuteDefaultsToOneNode(t *testing.T) {
	g := gen.Path(10)
	res, err := cluster.Execute(g, apps.BFS(0), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorker) != 1 {
		t.Fatalf("PerWorker = %d", len(res.PerWorker))
	}
}

func TestSPMDPropagatesErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := cluster.SPMD(3, func(rank int, cm *comm.Comm) error {
		if rank == 1 {
			return sentinel
		}
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestSPMDCollectives(t *testing.T) {
	err := cluster.SPMD(4, func(rank int, cm *comm.Comm) error {
		sum, err := cm.AllReduceI64(int64(rank), comm.OpSum)
		if err != nil {
			return err
		}
		if sum != 6 {
			return errors.New("bad sum")
		}
		return cm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGuidanceRootsForArith(t *testing.T) {
	// Arith programs without Roots get the DefaultRoots guidance.
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 1, 6)
	res, err := cluster.Execute(g, apps.PageRank(10), cluster.Options{Nodes: 2, RR: true})
	if err != nil {
		t.Fatal(err)
	}
	want := rrg.Generate(g, rrg.DefaultRoots(g), nil)
	if res.Guidance.MaxLastIter != want.MaxLastIter {
		t.Fatalf("guidance differs from DefaultRoots guidance")
	}
}
