package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
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

// A checkpoint taken after a pull round has suppressed its late starters
// and before any pull has reached max(LastIter) carries only the frontier:
// the resumed run cannot know who is owed, so its first superstep must be
// one closing pull at max(LastIter), and the values must come out
// bit-identical — on 1 and 2 ranks, under Generate's guidance and under a
// random one whose pull rounds start vertices progressively, and also when
// the shard still carries the "caughtup"/"debt" lists PR 16 wrote.
func TestCheckpointResumeBeforeClosingPull(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 7)
	p := testProgram()
	rng := rand.New(rand.NewSource(3))
	random := &rrg.Guidance{LastIter: make([]uint32, g.NumVertices()), Level: make([]uint32, g.NumVertices())}
	for v := range random.LastIter {
		random.LastIter[v] = uint32(rng.Intn(7))
	}
	for gname, gd := range map[string]*rrg.Guidance{
		"generated": rrg.Generate(g, p.Roots, nil),
		"random":    random,
	} {
		maxLI := int(slices.Max(gd.LastIter))
		for _, nodes := range []int{1, 2} {
			rr := func(_ int, cfg *Config) {
				cfg.RR, cfg.Guidance = true, gd
			}
			want := runCluster(t, g, p, nodes, nil) // RR off
			m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
			full := runCluster(t, g, p, nodes, func(rank int, cfg *Config) {
				rr(rank, cfg)
				cfg.Ckpt = m
			})
			// The first pull round that left somebody suppressed.
			at := -1
			for _, s := range full.Metrics.Iters {
				if s.Mode == metrics.Pull && s.Iter < maxLI {
					at = s.Iter
					break
				}
			}
			if at < 0 {
				t.Fatalf("%s nodes=%d: no pull round below max(LastIter) %d to checkpoint after", gname, nodes, maxLI)
			}
			shards := make([]*ckpt.State, nodes)
			for rank := range shards {
				s, err := m.Load(at, rank)
				if err != nil {
					t.Fatal(err)
				}
				for key := range s.Sets {
					if key != "frontier" {
						t.Errorf("%s nodes=%d: min/max shard carries set %q", gname, nodes, key)
					}
				}
				shards[rank] = s
			}
			merged, err := ckpt.Merge(shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, legacy := range []bool{false, true} {
				if legacy {
					merged.Sets["caughtup"] = []uint32{0, 5, 9}
					merged.Sets["debt"] = []uint32{1, 2, 3}
				}
				got := runCluster(t, g, p, nodes, func(rank int, cfg *Config) {
					rr(rank, cfg)
					cfg.Restore = merged
				})
				label := fmt.Sprintf("%s nodes=%d legacy=%v resumed after iteration %d", gname, nodes, legacy, at)
				if !sameValues(got.Values, want.Values) {
					t.Fatalf("%s: values differ from the RR-off run", label)
				}
				first := got.Metrics.Iters[0]
				if first.Mode != metrics.Pull || first.Iter != max(at+1, maxLI) {
					t.Errorf("%s: first superstep is %v at ruler %d, want the closing pull at %d", label, first.Mode, first.Iter, max(at+1, maxLI))
				}
				if got.Metrics.Suppressed() != 0 {
					t.Errorf("%s: %d vertices suppressed after the closing pull", label, got.Metrics.Suppressed())
				}
			}
		}
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
