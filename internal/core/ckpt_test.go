package core

import (
	"errors"
	"fmt"
	"io/fs"
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

// runWithCkpt executes p on nodes workers with the given checkpoint
// manager; rank failRank's transport dies after failAfter sends (failRank
// < 0 disables injection). Returns worker results and errors.
func runWithCkpt(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, m *ckpt.Manager, failRank, failAfter int) ([]*Result[float64], []error) {
	t.Helper()
	part, err := partition.NewChunked(g, nodes)
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
			eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(tr), Part: part, Sched: testSched(t, 0), Ckpt: m})
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

// Rebalancing moves ownership away from Part, and a shard holds the
// values, StableCnt and sparsedirty entries of the range it owned when it
// was written. A run resumed mid-way — every later shard deleted — must
// place each shard by its recorded bounds when it merges them, and finish
// bit-identical to the static run under Part: both kernels under RR, dense
// and sparse sync. The resume point is the first checkpoint whose ranges
// had moved at an earlier tick than its own, so sparse supersteps ran
// under them after the move-time flush.
func TestCheckpointResumeUnderRebalance(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 7)
	static, err := partition.NewChunked(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []func() *Program[float64]{testProgram, testArith} {
		for _, sync := range []SyncStrategy{SyncDense, SyncSparse} {
			p := prog()
			rr := withGuidance(t, g, p)
			want := runCluster(t, g, p, nodes, rr)
			run := func(m *ckpt.Manager) []*Result[float64] {
				return runClusterAll(t, g, p, nodes, func(rank int, cfg *Config) {
					rr(rank, cfg)
					cfg.Sync = sync
					cfg.Rebalance, cfg.RebalanceEvery, cfg.RebalanceDamping = true, 3, 1
					cfg.Ckpt = m
				})
			}
			full := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
			run(full)
			latest, err := full.LatestComplete(nodes)
			if err != nil {
				t.Fatal(err)
			}
			at, prev := -1, static.Bounds()
			for iter := 0; iter <= latest && at < 0; iter++ {
				s, err := full.Load(iter, 0)
				if errors.Is(err, fs.ErrNotExist) {
					continue // the Ruler jumped over this iteration
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(s.Bounds, static.Bounds()) && slices.Equal(s.Bounds, prev) {
					at = iter
				}
				prev = s.Bounds
			}
			if at < 0 || at == latest {
				t.Fatalf("%s/%v: no checkpoint with moved ranges before the last one (latest %d)", p.Name, sync, latest)
			}
			early := &ckpt.Manager{Dir: t.TempDir(), Every: 1, Resume: true}
			for rank := 0; rank < nodes; rank++ {
				s, err := full.Load(at, rank)
				if err != nil {
					t.Fatal(err)
				}
				if err := early.Save(rank, s); err != nil {
					t.Fatal(err)
				}
			}
			for rank, res := range run(early) {
				if !sameValues(res.Values, want.Values) {
					t.Fatalf("%s/%v rank %d: resumed after iteration %d differs from the static run", p.Name, sync, rank, at)
				}
			}
		}
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
				cfg.Sync = SyncAdaptive // so shards carry "sparsedirty" too
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
					if key != "frontier" && key != "sparsedirty" {
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
