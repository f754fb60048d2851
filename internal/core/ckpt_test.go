package core

import (
	"sync"
	"testing"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
)

// resumeFrom is the caller's half of Ckpt.Resume, which the engine does
// not read: the Restore state merged from m's latest complete checkpoint
// (nil when m is nil, not resuming, or has no complete checkpoint).
func resumeFrom(m *ckpt.Manager, nodes int) (*ckpt.State, error) {
	if m == nil || !m.Resume {
		return nil, nil
	}
	return m.MergeLatest(nodes)
}

// runWithCkpt executes p on nodes workers with the given checkpoint
// manager, resuming from it under m.Resume; rank failRank's transport dies
// after failAfter sends (failRank < 0 disables injection). Returns worker
// results and errors.
func runWithCkpt(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, m *ckpt.Manager, failRank, failAfter int) ([]*Result[float64], []error) {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := resumeFrom(m, nodes)
	if err != nil {
		t.Fatal(err)
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result[float64], nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := transports[rank]
			if rank == failRank {
				tr = &flakyTransport{Transport: tr, remaining: failAfter}
			}
			eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(tr), Part: part, Sched: testSched(t, 0), Ckpt: m, Restore: restore})
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
	}
	return results, errs
}

func TestCheckpointResumeArith(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 1, 41)
	p := testArith()
	want := runCluster(t, g, p, 3, nil)

	dir := t.TempDir()
	m := &ckpt.Manager{Dir: dir, Every: 3}
	// Crash partway: rank 1 dies after enough sends for a few supersteps.
	_, errs := runWithCkpt(t, g, p, 3, m, 1, 40)
	if errs[1] == nil {
		t.Skip("injection did not trigger; adjust failAfter")
	}
	latest, err := m.LatestComplete(3)
	if err != nil {
		t.Fatal(err)
	}
	if latest < 0 {
		t.Fatal("no complete checkpoint before the crash")
	}

	// Resume with healthy transports.
	m.Resume = true
	results, errs := runWithCkpt(t, g, p, 3, m, -1, 0)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	got := results[0]
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
	// The resumed run must have skipped the checkpointed prefix.
	if got.Iterations >= want.Iterations {
		t.Fatalf("resumed run executed %d iterations, full run %d", got.Iterations, want.Iterations)
	}
}

func TestCheckpointResumeMinMax(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 32, 43)
	p := testProgram()
	want := runCluster(t, g, p, 3, nil)

	dir := t.TempDir()
	m := &ckpt.Manager{Dir: dir, Every: 1}
	_, errs := runWithCkpt(t, g, p, 3, m, 1, 12)
	if errs[1] == nil {
		t.Skip("injection did not trigger; adjust failAfter")
	}
	latest, err := m.LatestComplete(3)
	if err != nil {
		t.Fatal(err)
	}
	if latest < 0 {
		t.Fatal("no complete checkpoint before the crash")
	}

	m.Resume = true
	results, errs := runWithCkpt(t, g, p, 3, m, -1, 0)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	got := results[0]
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: resumed %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
}

func TestCheckpointResumeIsNoOpWithoutCheckpoints(t *testing.T) {
	g := gen.Path(64)
	p := testProgram()
	m := &ckpt.Manager{Dir: t.TempDir(), Resume: true}
	results, errs := runWithCkpt(t, g, p, 2, m, -1, 0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := runCluster(t, g, p, 2, nil)
	for v := range want.Values {
		if results[0].Values[v] != want.Values[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestCheckpointRejectsWrongProgram(t *testing.T) {
	g := gen.Path(32)
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
	if _, errs := runWithCkpt(t, g, testProgram(), 2, m, -1, 0); errs[0] != nil {
		t.Fatal(errs[0])
	}
	m.Resume = true
	other := testProgram()
	other.Name = "something-else"
	_, errs := runWithCkpt(t, g, other, 2, m, -1, 0)
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("checkpoint for a different program accepted")
	}
}

// A run resumed from any tick repeats the rest of the uninterrupted run
// exactly: the same supersteps, each with the same mode, active count,
// Computations and frozen vertices, and bit-identical values. The path
// moves the frontier one vertex per superstep, across the rank boundary,
// so some tick's frontier is a single owned vertex of each rank. Under
// finish early each vertex's value settles one hop per superstep, so
// vertices freeze throughout the run and every tick holds stability
// streaks in progress: a resume that dropped a frontier entry, a streak or
// a streak's reference value diverges.
func TestResumeFromEveryTickRepeatsTheRun(t *testing.T) {
	const nodes = 2
	g := gen.Path(64)
	for _, tc := range []struct {
		p  *Program[float64]
		rr bool
	}{{testProgram(), false}, {testArith(), true}} {
		p := tc.p
		setup := func(int, *Config) {}
		if tc.rr {
			setup = withGuidance(t, g, p)
		}
		m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
		full := runCluster(t, g, p, nodes, func(rank int, cfg *Config) {
			setup(rank, cfg)
			cfg.Ckpt = m
		})
		want := map[int]metrics.IterStat{}
		for _, s := range full.Metrics.Iters {
			want[s.Iter] = s
		}
		latest, err := m.LatestComplete(nodes)
		if err != nil || latest < 2 {
			t.Fatalf("%s: latest complete checkpoint %d, %v; want at least 2", p.Name, latest, err)
		}
		for at := 0; at < latest; at++ {
			shards := make([]*ckpt.State, nodes)
			for rank := range shards {
				if shards[rank], err = m.Load(at, rank); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := ckpt.Merge(shards)
			if err != nil {
				t.Fatal(err)
			}
			got := runCluster(t, g, p, nodes, func(rank int, cfg *Config) {
				setup(rank, cfg)
				cfg.Restore = merged
			})
			if !sameValues(got.Values, full.Values) {
				t.Fatalf("%s resumed after iteration %d: values differ from the uninterrupted run", p.Name, at)
			}
			if len(got.Metrics.Iters) != len(full.Metrics.Iters)-at-1 {
				t.Fatalf("%s resumed after iteration %d: %d supersteps, the uninterrupted run %d after it", p.Name, at, len(got.Metrics.Iters), len(full.Metrics.Iters)-at-1)
			}
			for _, s := range got.Metrics.Iters {
				w := want[s.Iter]
				if s.Mode != w.Mode || s.ActiveVerts != w.ActiveVerts || s.Computations != w.Computations || s.Suppressed != w.Suppressed {
					t.Fatalf("%s resumed after iteration %d: superstep %d is %v with %d active, %d computations, %d frozen; the uninterrupted run's %v with %d, %d, %d",
						p.Name, at, s.Iter, s.Mode, s.ActiveVerts, s.Computations, s.Suppressed, w.Mode, w.ActiveVerts, w.Computations, w.Suppressed)
				}
			}
		}
	}
}
