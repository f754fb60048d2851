package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
)

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

// A one-rank run derives its frontier, last-change marks and update counts
// straight from the changed set instead of encoding a delta batch to itself.
// It must agree with the same program on two in-process ranks, whichever
// codec they send (values, LastChange, supersteps, per-superstep updates)
// and, for min/max, with the serial BSP reference.
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
			cfgFor := func(codec compress.Codec) func(int, *Config) {
				return func(_ int, cfg *Config) {
					cfg.TrackLastChange = true
					cfg.Sched = testSched(t, 2)
					cfg.Codec = codec
					if forcePull {
						cfg.DenseDivisor = math.MaxInt64
					}
				}
			}
			one := runClusterAll(t, g, prog, 1, cfgFor(nil))[0]
			if prog.Agg == MinMax {
				want, _, wantUpdates := serialMinMax(g, prog)
				if !sameValues(one.Values, want) {
					t.Fatalf("%s forcePull=%v: one-rank values differ from the serial reference", prog.Name, forcePull)
				}
				if forcePull && one.Metrics.Updates() != wantUpdates {
					t.Fatalf("%s: %d updates, serial reference %d", prog.Name, one.Metrics.Updates(), wantUpdates)
				}
			}
			for _, codec := range []compress.Codec{nil, compress.Adaptive{}} {
				two := runClusterAll(t, g, prog, 2, cfgFor(codec))
				for rank, res := range two {
					if !sameValues(one.Values, res.Values) {
						t.Fatalf("%s codec=%v forcePull=%v: one-rank values differ from rank %d of two", prog.Name, codec, forcePull, rank)
					}
					if !slices.Equal(one.LastChange, res.LastChange) {
						t.Fatalf("%s codec=%v forcePull=%v: one-rank LastChange differs from rank %d of two", prog.Name, codec, forcePull, rank)
					}
				}
				if one.Iterations != two[0].Iterations {
					t.Fatalf("%s codec=%v forcePull=%v: %d supersteps on one rank, %d on two", prog.Name, codec, forcePull, one.Iterations, two[0].Iterations)
				}
				// A push superstep counts one update per proposing rank, so
				// only pull supersteps are comparable across rank counts.
				if prog.Agg == Arith || forcePull {
					if got, want := updatesPerStep([]*Result[float64]{one}), updatesPerStep(two); !slices.Equal(got, want) {
						t.Fatalf("%s codec=%v: per-superstep updates %v on one rank, %v on two", prog.Name, codec, got, want)
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
// and two overlapped ranks must agree bit for bit.
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
	two := runClusterAll(t, g, prog, 2, nil)
	check("two ranks", two)
	for rank, res := range two {
		if got := res.Metrics.OverlappedSyncs; got != int64(res.Iterations) {
			t.Fatalf("rank %d: %d of %d supersteps overlapped", rank, got, res.Iterations)
		}
	}
}

// Every multi-rank superstep synchronises through the one streaming
// exchange: a pull superstep streams while it computes, a push superstep
// opens the exchange after commit. Exactly the pull supersteps count as
// overlapped, push supersteps send through the exchange but hide no bytes,
// and values and LastChange equal the one-rank run's.
func TestPushAndPullSuperstepsShareOneExchange(t *testing.T) {
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, 8, 41)
	prog := testProgram()
	one := runClusterAll(t, g, prog, 1, func(_ int, cfg *Config) { cfg.TrackLastChange = true })[0]
	two := runClusterAll(t, g, prog, 2, func(_ int, cfg *Config) { cfg.TrackLastChange = true })
	for rank, res := range two {
		if !sameValues(res.Values, one.Values) {
			t.Fatalf("rank %d: values differ from the one-rank run", rank)
		}
		if !slices.Equal(res.LastChange, one.LastChange) {
			t.Fatalf("rank %d: LastChange differs from the one-rank run", rank)
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
				t.Errorf("rank %d superstep %d: push superstep hid %d bytes behind compute", rank, it.Iter, it.StreamedBytes)
			}
			if it.SyncBytes == 0 {
				t.Errorf("rank %d superstep %d: push superstep sent nothing through the exchange", rank, it.Iter)
			}
		}
		if push == 0 || pull == 0 {
			t.Fatalf("rank %d: %d push and %d pull supersteps; the run must exercise both", rank, push, pull)
		}
		if m.OverlappedSyncs != pull {
			t.Errorf("rank %d: %d overlapped syncs, want one per pull superstep = %d", rank, m.OverlappedSyncs, pull)
		}
	}
}

// Every superstep, push or pull, costs each rank exactly one delta-sync
// message per peer (its one batch doubles as the end marker, and a rank
// with nothing to send sends the bare marker). A push superstep relaxes
// into owned destinations only, so it sends no proposals, and no collective
// runs inside a min/max superstep: the frontier every rank holds decides
// termination and the push/pull switch. The graph is small enough that
// every delta batch fits one chunk.
func TestSuperstepMessageBudget(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(384, 3072, gen.DefaultRMAT, 8, 41)
	comms := make([]*comm.Comm, nodes)
	res := runClusterAll(t, g, testProgram(), nodes, func(rank int, cfg *Config) { comms[rank] = cfg.Comm })
	for rank, r := range res {
		var push, pull int64
		for _, it := range r.Metrics.Iters {
			if it.Mode == metrics.Pull {
				pull++
			} else {
				push++
			}
		}
		if push == 0 || pull == 0 {
			t.Fatalf("rank %d: %d push and %d pull supersteps; the run must exercise both", rank, push, pull)
		}
		want := (nodes - 1) * (push + pull)
		if got := comms[rank].T.Stats().MessagesSent; got != want {
			t.Errorf("rank %d: sent %d messages over %d supersteps (%d push), want %d", rank, got, push+pull, push, want)
		}
	}
}
