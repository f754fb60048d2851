package cluster_test

import (
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
)

// Sequential runs on one session must be bit-identical to one-shot Execute
// runs — the resident transports/communicators/pools are pure reuse, not a
// semantic change.
func TestSessionMatchesExecute(t *testing.T) {
	g := gen.Uniform(300, 1200, 4, 11)
	s, err := cluster.NewSession(3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Nodes() != 3 || !s.Healthy() {
		t.Fatalf("nodes=%d healthy=%v", s.Nodes(), s.Healthy())
	}

	opt := cluster.Options{Nodes: 3, Threads: 2, RR: true}

	// Interleave domains and aggregation kinds across one session.
	for round := 0; round < 3; round++ {
		sres, err := cluster.ExecuteSession(s, g, apps.SSSP(0), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cluster.Execute(g, apps.SSSP(0), opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Result.Values {
			if sres.Result.Values[v] != want.Result.Values[v] {
				t.Fatalf("round %d: sssp vertex %d: %g vs %g", round, v, sres.Result.Values[v], want.Result.Values[v])
			}
		}
		if sres.Comm.MessagesSent <= 0 {
			t.Fatalf("round %d: session run reported no traffic (cumulative-stats delta broken?)", round)
		}

		u32res, err := cluster.ExecuteSession(s, g, apps.BFSU32(0), opt)
		if err != nil {
			t.Fatal(err)
		}
		wantU, err := cluster.Execute(g, apps.BFSU32(0), opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantU.Result.Values {
			if u32res.Result.Values[v] != wantU.Result.Values[v] {
				t.Fatalf("round %d: bfs-u32 vertex %d: %d vs %d", round, v, u32res.Result.Values[v], wantU.Result.Values[v])
			}
		}

		pres, err := cluster.ExecuteSession(s, g, apps.PageRank(10), opt)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := cluster.Execute(g, apps.PageRank(10), opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantP.Result.Values {
			if pres.Result.Values[v] != wantP.Result.Values[v] {
				t.Fatalf("round %d: pr vertex %d: %g vs %g", round, v, pres.Result.Values[v], wantP.Result.Values[v])
			}
		}
	}
}

func TestSessionClosedRejectsRuns(t *testing.T) {
	s, err := cluster.NewSession(2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := cluster.ExecuteSession(s, gen.Path(4), apps.SSSP(0), cluster.Options{}); err == nil {
		t.Fatal("closed session accepted a run")
	}
}

func TestSessionPoisonedAfterFailedRun(t *testing.T) {
	s, err := cluster.NewSession(2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := &core.Program[float64]{Name: "bad", Agg: core.MinMax} // no hooks: Validate fails on every rank
	if _, err := cluster.ExecuteSession(s, gen.Path(4), bad, cluster.Options{}); err == nil {
		t.Fatal("invalid program accepted")
	}
	if s.Healthy() {
		t.Fatal("session should be poisoned after a failed run")
	}
	if _, err := cluster.ExecuteSession(s, gen.Path(4), apps.SSSP(0), cluster.Options{}); err == nil {
		t.Fatal("poisoned session accepted a run")
	}
}
