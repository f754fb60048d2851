package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"slfe/internal/bitset"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
)

// Checkpoint-resume through the unified driver, both kernels, with RR on
// (so the resumed min/max run has to repay what it cannot know it owes)
// and multiple threads with stealing (so the parallel collectBits path feeds the
// shards). A first run writes checkpoints every superstep; a second run
// resumes from the last complete one and must reproduce the values in
// fewer supersteps.
func TestDriverCheckpointResumeBothKernels(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 7)
	for _, tc := range []struct {
		name string
		prog func() *Program[float64]
	}{
		{"minmax", testProgram},
		{"arith", testArith},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog()
			rr := withGuidance(t, g, p)
			parallel := func(rank int, cfg *Config) {
				rr(rank, cfg)
				cfg.Sched = testSched(t, 2)
			}
			want := runCluster(t, g, p, 2, parallel)

			m := &ckpt.Manager{Dir: t.TempDir(), Every: 1}
			full := runCluster(t, g, p, 2, func(rank int, cfg *Config) {
				parallel(rank, cfg)
				cfg.Ckpt = m
			})
			latest, err := m.LatestComplete(2)
			if err != nil {
				t.Fatal(err)
			}
			if latest < 0 {
				t.Fatal("no complete checkpoint written")
			}
			m.Resume = true
			resumed := runCluster(t, g, p, 2, func(rank int, cfg *Config) {
				parallel(rank, cfg)
				cfg.Ckpt = m
			})
			for v := range want.Values {
				if resumed.Values[v] != want.Values[v] {
					t.Fatalf("vertex %d: resumed %v, want %v", v, resumed.Values[v], want.Values[v])
				}
			}
			if resumed.Iterations >= full.Iterations {
				t.Fatalf("resume replayed the whole run: %d vs %d supersteps", resumed.Iterations, full.Iterations)
			}
		})
	}
}

// Rebalancing through the unified driver with the parallel compute paths
// (threads + stealing) must still be value-deterministic for both kernels.
func TestDriverRebalanceParallelBothKernels(t *testing.T) {
	g := gen.RMAT(1024, 8192, gen.DefaultRMAT, 8, 11)
	for _, tc := range []struct {
		name string
		prog func() *Program[float64]
	}{
		{"minmax", testProgram},
		{"arith", testArith},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog()
			rr := withGuidance(t, g, p)
			want := runCluster(t, g, p, 3, rr)
			got := runCluster(t, g, p, 3, func(rank int, cfg *Config) {
				rr(rank, cfg)
				cfg.Sched = testSched(t, 3)
				cfg.Rebalance = true
				cfg.RebalanceEvery = 2
				cfg.RebalanceDamping = 1
			})
			for v := range want.Values {
				if got.Values[v] != want.Values[v] {
					t.Fatalf("vertex %d: rebalanced %v, static %v", v, got.Values[v], want.Values[v])
				}
			}
		})
	}
}

// The driver's per-phase instrumentation must be populated: every
// superstep contributes frontier/commit time, checkpoint ticks contribute
// CkptTime, and the pull/push split still adds up to compute time.
func TestDriverPhaseMetrics(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 13)
	p := testProgram()
	m := &ckpt.Manager{Dir: t.TempDir(), Every: 2}
	res := runCluster(t, g, p, 2, func(_ int, cfg *Config) {
		cfg.Sched = testSched(t, 2)
		cfg.Ckpt = m
	})
	r := res.Metrics
	if r.FrontierTime <= 0 {
		t.Error("FrontierTime not recorded")
	}
	if r.CommitTime <= 0 {
		t.Error("CommitTime not recorded")
	}
	if r.CkptTime <= 0 {
		t.Error("CkptTime not recorded")
	}
	if r.PullTime+r.PushTime != r.ComputeTime {
		t.Errorf("pull %v + push %v != compute %v", r.PullTime, r.PushTime, r.ComputeTime)
	}
	if r.CommitTime > r.ComputeTime {
		t.Errorf("commit %v exceeds compute %v", r.CommitTime, r.ComputeTime)
	}

	arith := runCluster(t, g, testArith(), 2, nil)
	if arith.Metrics.CommitTime <= 0 {
		t.Error("arith CommitTime not recorded")
	}
	if arith.Metrics.CkptTime != 0 {
		t.Error("arith CkptTime recorded without a checkpoint manager")
	}
}

// The parallelized frontier statistics and bit collection must agree with
// a serial scan for any bit pattern and thread count.
func TestParallelFrontierHelpersMatchSerial(t *testing.T) {
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, 1, 17)
	part, _ := partition.NewChunked(g, 1)
	for _, threads := range []int{1, 2, 7} {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, threads)})
		if err != nil {
			t.Fatal(err)
		}
		for _, density := range []int{0, 3, 64, 1} {
			b := bitset.NewAtomic(g.NumVertices())
			if density > 0 {
				for v := 0; v < g.NumVertices(); v += density {
					b.Set(v)
				}
			}
			var wantSum int64
			var wantIDs []uint32
			b.Range(func(i int) bool {
				wantSum += eng.g.OutDegree(graph.VertexID(i))
				wantIDs = append(wantIDs, uint32(i))
				return true
			})
			if got := eng.frontierOutEdges(b); got != wantSum {
				t.Fatalf("threads=%d density=%d: frontierOutEdges = %d, want %d", threads, density, got, wantSum)
			}
			// The whole set, and an owned-range slice whose chunks start
			// off the ChunkSize grid.
			n := graph.VertexID(g.NumVertices())
			for _, r := range [][2]graph.VertexID{{0, n}, {300, n - 7}} {
				var want []uint32
				for _, id := range wantIDs {
					if graph.VertexID(id) >= r[0] && graph.VertexID(id) < r[1] {
						want = append(want, id)
					}
				}
				gotIDs := eng.collectBitsInto(nil, b, r[0], r[1])
				if !slices.Equal(gotIDs, want) {
					t.Fatalf("threads=%d density=%d range=%v: collectBits = %d ids, want %d in ascending order",
						threads, density, r, len(gotIDs), len(want))
				}
			}
		}
	}
}

// Neighbouring threads fold their chunk counts into adjacent threadCounters
// once per chunk; the element stride must be a whole number of cache lines
// or those folds false-share (machine-independent, no timing).
func TestThreadCountersStride(t *testing.T) {
	cs := make([]threadCounters, 2)
	stride := uintptr(unsafe.Pointer(&cs[1])) - uintptr(unsafe.Pointer(&cs[0]))
	if stride == 0 || stride%64 != 0 {
		t.Fatalf("threadCounters stride is %d bytes, want a multiple of 64", stride)
	}
}

// BenchmarkPullKernelThreads runs the all-vertex pull kernel (20 PageRank
// supersteps through the span-sum hook) at 1, 2 and 4 threads on one rank:
// ns/op should fall as threads are added, up to the core count.
func BenchmarkPullKernelThreads(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<18, gen.DefaultRMAT, 16, 5)
	part, err := partition.NewChunked(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := testArith()
	p.MaxIters = 20
	p.GatherSpan = SumSpan[float64]
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(threads), func(b *testing.B) {
			ts, err := comm.NewLocalGroup(1)
			if err != nil {
				b.Fatal(err)
			}
			defer ts[0].Close()
			eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(ts[0]), Part: part, Sched: testSched(b, threads)})
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if _, err := eng.Run(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(20*g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
		})
	}
}
