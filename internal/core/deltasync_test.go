package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
)

func TestParseSyncStrategy(t *testing.T) {
	cases := map[string]SyncStrategy{
		"": SyncDense, "dense": SyncDense, "sparse": SyncSparse, "adaptive": SyncAdaptive,
	}
	for in, want := range cases {
		got, err := ParseSyncStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("%v has no name", got)
		}
	}
	if _, err := ParseSyncStrategy("eager"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSyncStrategyValidation(t *testing.T) {
	g := gen.Path(10)
	part, _ := partition.NewChunked(g, 1)
	if _, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), Sync: SyncSparse, Rebalance: true}); err != nil {
		t.Errorf("sparse sync with rebalancing rejected: %v", err)
	}
	if _, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), Sync: SyncStrategy(42)}); err == nil {
		t.Error("invalid sync strategy accepted")
	}
	if _, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), Sync: SyncAdaptive}); err != nil {
		t.Errorf("adaptive sync rejected: %v", err)
	}
}

// runClusterAll executes p on a fresh in-process cluster and returns every
// worker's result. A rank whose mutate leaves Sched nil computes on a
// GOMAXPROCS-wide pool of its own, and one whose Ckpt resumes without a
// Restore gets the merge of Ckpt's latest complete checkpoint.
func runClusterAll(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, mutate func(rank int, cfg *Config)) []*Result[float64] {
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
			defer transports[rank].Close()
			cfg := Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part}
			if mutate != nil {
				mutate(rank, &cfg)
			}
			if cfg.Sched == nil {
				cfg.Sched = testSched(t, 0)
			}
			var err error
			if cfg.Restore == nil {
				cfg.Restore, err = resumeFrom(cfg.Ckpt, nodes)
			}
			if err != nil {
				errs[rank] = err
				comm.Abort(transports[rank])
				return
			}
			eng, err := New[float64](cfg)
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
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSyncStrategiesBitIdentical(t *testing.T) {
	const nodes = 4
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 21)
	for _, prog := range []*Program[float64]{testProgram(), testArith()} {
		ref := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) {
			cfg.TrackLastChange = true
		})
		for _, sync := range []SyncStrategy{SyncSparse, SyncAdaptive} {
			for _, codec := range []compress.Codec{nil, compress.Adaptive{}} {
				sync, codec := sync, codec
				results := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) {
					cfg.Sync = sync
					cfg.Codec = codec
					cfg.TrackLastChange = true
				})
				if results[0].Iterations != ref[0].Iterations {
					t.Fatalf("%s/%v: %d iterations, dense ran %d", prog.Name, sync, results[0].Iterations, ref[0].Iterations)
				}
				for rank, res := range results {
					if !sameValues(res.Values, ref[0].Values) {
						t.Fatalf("%s/%v: rank %d values differ from dense reference", prog.Name, sync, rank)
					}
					for v := range res.LastChange {
						if res.LastChange[v] != ref[0].LastChange[v] {
							t.Fatalf("%s/%v: rank %d LastChange[%d] = %d, dense has %d",
								prog.Name, sync, rank, v, res.LastChange[v], ref[0].LastChange[v])
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveSparseTailBytes is the acceptance check of the adaptive
// exchange: on a frontier-driven run the sparse strategy must transfer
// strictly fewer bytes than the dense broadcast on every superstep the
// adaptive mode routes sparsely, and the adaptive run must use both
// strategies (dense head, sparse tail).
func TestAdaptiveSparseTailBytes(t *testing.T) {
	const nodes = 4
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 5)
	prog := testProgram()

	perSuperstep := func(sync SyncStrategy) (*metrics.Run, *Result[float64]) {
		results := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) { cfg.Sync = sync })
		runs := make([]*metrics.Run, len(results))
		for i, r := range results {
			runs[i] = r.Metrics
		}
		return metrics.Merge(runs), results[0]
	}

	dense, denseRes := perSuperstep(SyncDense)
	sparse, sparseRes := perSuperstep(SyncSparse)
	adaptive, adaptiveRes := perSuperstep(SyncAdaptive)

	if !sameValues(denseRes.Values, sparseRes.Values) || !sameValues(denseRes.Values, adaptiveRes.Values) {
		t.Fatal("strategies disagree on values")
	}
	if len(dense.Iters) != len(sparse.Iters) || len(dense.Iters) != len(adaptive.Iters) {
		t.Fatalf("superstep counts diverge: dense=%d sparse=%d adaptive=%d",
			len(dense.Iters), len(sparse.Iters), len(adaptive.Iters))
	}
	if adaptive.DenseSyncs == 0 || adaptive.SparseSyncs == 0 {
		t.Fatalf("adaptive used dense=%d sparse=%d supersteps; want both regimes on a BFS-style run",
			adaptive.DenseSyncs, adaptive.SparseSyncs)
	}
	sparseTail := 0
	for i := range adaptive.Iters {
		if !adaptive.Iters[i].SyncSparse {
			continue
		}
		sparseTail++
		if sparse.Iters[i].SyncBytes >= dense.Iters[i].SyncBytes {
			t.Errorf("superstep %d: sparse sync sent %d bytes, dense sent %d — sparse must be strictly cheaper where adaptive picks it",
				i, sparse.Iters[i].SyncBytes, dense.Iters[i].SyncBytes)
		}
		// The adaptive run made the same choice, so it must match the
		// sparse run's cost there.
		if adaptive.Iters[i].SyncBytes >= dense.Iters[i].SyncBytes {
			t.Errorf("superstep %d: adaptive sent %d bytes where dense sends %d", i, adaptive.Iters[i].SyncBytes, dense.Iters[i].SyncBytes)
		}
	}
	if sparseTail == 0 {
		t.Fatal("adaptive never picked sparse; tail supersteps should be sparse")
	}
}

func TestSparseSyncWithCkptResume(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 77)
	prog := testProgram()
	dir := t.TempDir()

	ref := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) { cfg.Sync = SyncSparse })
	// First run saves checkpoints every superstep.
	runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) {
		cfg.Sync = SyncSparse
		cfg.Ckpt = &ckpt.Manager{Dir: dir, Every: 1}
	})
	// Resumed run must restore the sparse-dirty set and still converge to
	// identical values on every rank (the flush depends on that set).
	resumed := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) {
		cfg.Sync = SyncSparse
		cfg.Ckpt = &ckpt.Manager{Dir: dir, Every: 1, Resume: true}
	})
	for rank, res := range resumed {
		if !sameValues(res.Values, ref[0].Values) {
			t.Fatalf("rank %d: resumed sparse run differs from reference", rank)
		}
	}
}

func TestSparseSingleRank(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 8, 3)
	prog := testProgram()
	solo := runClusterAll(t, g, prog, 1, func(_ int, cfg *Config) { cfg.Sync = SyncSparse })
	ref := runClusterAll(t, g, prog, 1, nil)
	if !sameValues(solo[0].Values, ref[0].Values) {
		t.Fatal("single-rank sparse run differs from dense")
	}
}

// A one-rank run derives its frontier, last-change marks and update counts
// straight from the changed set instead of encoding a delta batch to itself.
// Whatever the configured strategy, it must agree with the same program on
// two in-process ranks (values, LastChange, supersteps, per-superstep
// updates) and, for min/max, with the serial BSP reference.
func TestOneRankSyncMatchesTwoRanksAndSerial(t *testing.T) {
	g := gen.RMAT(768, 6144, gen.DefaultRMAT, 8, 29)
	updatesPerStep := func(rs []*Result[float64]) []int64 {
		runs := make([]*metrics.Run, len(rs))
		for i, r := range rs {
			runs[i] = r.Metrics
		}
		var out []int64
		for _, it := range metrics.Merge(runs).Iters {
			out = append(out, it.Updates)
		}
		return out
	}
	for _, prog := range []*Program[float64]{testProgram(), testArith()} {
		for _, forcePull := range []bool{false, true} {
			cfgFor := func(strat SyncStrategy) func(int, *Config) {
				return func(_ int, cfg *Config) {
					cfg.TrackLastChange = true
					cfg.Sched = testSched(t, 2)
					cfg.Sync = strat
					if forcePull {
						cfg.DenseDivisor = math.MaxInt64
					}
				}
			}
			two := runClusterAll(t, g, prog, 2, cfgFor(SyncDense))
			for _, strat := range []SyncStrategy{SyncDense, SyncSparse, SyncAdaptive} {
				one := runClusterAll(t, g, prog, 1, cfgFor(strat))[0]
				if !sameValues(one.Values, two[0].Values) {
					t.Fatalf("%s %v forcePull=%v: one-rank values differ from two ranks", prog.Name, strat, forcePull)
				}
				if !slices.Equal(one.LastChange, two[0].LastChange) {
					t.Fatalf("%s %v forcePull=%v: one-rank LastChange differs from two ranks", prog.Name, strat, forcePull)
				}
				if one.Iterations != two[0].Iterations {
					t.Fatalf("%s %v forcePull=%v: %d supersteps on one rank, %d on two", prog.Name, strat, forcePull, one.Iterations, two[0].Iterations)
				}
				// A push superstep counts one update per proposing rank, so
				// only pull supersteps are comparable across rank counts.
				if prog.Agg == Arith || forcePull {
					if got, want := updatesPerStep([]*Result[float64]{one}), updatesPerStep(two); !slices.Equal(got, want) {
						t.Fatalf("%s %v: per-superstep updates %v on one rank, %v on two", prog.Name, strat, got, want)
					}
				}
				if prog.Agg == MinMax {
					want, _, wantUpdates := serialMinMax(g, prog)
					if !sameValues(one.Values, want) {
						t.Fatalf("%s %v forcePull=%v: one-rank values differ from the serial reference", prog.Name, strat, forcePull)
					}
					if forcePull && one.Metrics.Updates() != wantUpdates {
						t.Fatalf("%s %v: %d updates, serial reference %d", prog.Name, strat, one.Metrics.Updates(), wantUpdates)
					}
				}
			}
		}
	}
}

// An arith vertex whose new value is no change under the domain's |Δ| —
// −0 computed for a vertex holding +0, or NaN — keeps its old bits: commit
// publishes the old value, the vertex is not marked changed, so it counts
// in no superstep's Updates and no rank is sent anything for it. One rank
// and two overlapped ranks under dense and adaptive sync must agree bit for
// bit.
func TestArithZeroDeltaKeepsOldBits(t *testing.T) {
	const n, negZero, nan = 8, 1, 6
	g := gen.Path(n)
	prog := &Program[float64]{
		Name: "test-zero-delta",
		Agg:  Arith,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == nan {
				return 2.5
			}
			return 0
		},
		Gather: func(acc, src Value, _ float32) Value { return acc + src },
		Apply: func(_ graph.View, v graph.VertexID, acc, _ Value) Value {
			switch v {
			case negZero:
				return math.Copysign(0, -1)
			case nan:
				return math.NaN()
			}
			// The 0·acc term makes a NaN leaking into a gather visible.
			return float64(v) + 1 + 0*acc
		},
		MaxIters: 4,
	}
	want := make([]Value, n)
	for v := range want {
		want[v] = float64(v) + 1
	}
	want[negZero], want[nan] = 0, 2.5
	check := func(label string, rs []*Result[float64]) {
		t.Helper()
		runs := make([]*metrics.Run, len(rs))
		for rank, res := range rs {
			if !sameValues(res.Values, want) {
				t.Fatalf("%s rank %d: values %v, want %v (bits of vertex %d: %#x)",
					label, rank, res.Values, want, negZero, math.Float64bits(res.Values[negZero]))
			}
			runs[rank] = res.Metrics
		}
		var updates []int64
		for _, it := range metrics.Merge(runs).Iters {
			updates = append(updates, it.Updates)
		}
		if wantUpdates := []int64{n - 2, 0, 0, 0}; !slices.Equal(updates, wantUpdates) {
			t.Fatalf("%s: per-superstep updates %v, want %v", label, updates, wantUpdates)
		}
	}
	check("one rank", runClusterAll(t, g, prog, 1, nil))
	for _, strat := range []SyncStrategy{SyncDense, SyncAdaptive} {
		two := runClusterAll(t, g, prog, 2, func(_ int, cfg *Config) { cfg.Sync = strat })
		check(fmt.Sprintf("two ranks %v", strat), two)
		for rank, res := range two {
			if got := res.Metrics.OverlappedSyncs; got != int64(res.Iterations) {
				t.Fatalf("%v rank %d: %d of %d supersteps overlapped", strat, rank, got, res.Iterations)
			}
		}
	}
}

// Every multi-rank superstep synchronises through the one streaming
// exchange: a pull superstep streams while it computes, a push superstep
// opens the exchange after commit. Under every strategy each superstep
// counts once as dense or sparse, exactly the pull supersteps count as
// overlapped, push supersteps send through the exchange but hide no bytes,
// and values and LastChange equal the one-rank run's.
func TestPushAndPullSuperstepsShareOneExchange(t *testing.T) {
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, 8, 41)
	prog := testProgram()
	one := runClusterAll(t, g, prog, 1, func(_ int, cfg *Config) { cfg.TrackLastChange = true })[0]
	for _, strat := range []SyncStrategy{SyncDense, SyncSparse, SyncAdaptive} {
		two := runClusterAll(t, g, prog, 2, func(_ int, cfg *Config) {
			cfg.TrackLastChange = true
			cfg.Sync = strat
		})
		for rank, res := range two {
			if !sameValues(res.Values, one.Values) {
				t.Fatalf("%v rank %d: values differ from the one-rank run", strat, rank)
			}
			if !slices.Equal(res.LastChange, one.LastChange) {
				t.Fatalf("%v rank %d: LastChange differs from the one-rank run", strat, rank)
			}
			m := res.Metrics
			var push, pull int64
			for _, it := range m.Iters {
				if it.Mode == metrics.Pull {
					pull++
					continue
				}
				push++
				if it.StreamedBytes != 0 {
					t.Errorf("%v rank %d superstep %d: push superstep hid %d bytes behind compute", strat, rank, it.Iter, it.StreamedBytes)
				}
				if it.SyncBytes == 0 {
					t.Errorf("%v rank %d superstep %d: push superstep sent nothing through the exchange", strat, rank, it.Iter)
				}
			}
			if push == 0 || pull == 0 {
				t.Fatalf("%v rank %d: %d push and %d pull supersteps; the run must exercise both", strat, rank, push, pull)
			}
			if got := m.DenseSyncs + m.SparseSyncs; got != int64(len(m.Iters)) {
				t.Errorf("%v rank %d: dense %d + sparse %d syncs for %d supersteps", strat, rank, m.DenseSyncs, m.SparseSyncs, len(m.Iters))
			}
			if m.OverlappedSyncs != pull {
				t.Errorf("%v rank %d: %d overlapped syncs, want one per pull superstep = %d", strat, rank, m.OverlappedSyncs, pull)
			}
		}
	}
}
