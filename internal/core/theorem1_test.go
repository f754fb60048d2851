package core

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"slfe/internal/comm"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// This file checks Theorem 1 (§3.7) as an executable property: an RR run
// of a monotone min/max program (which applies no "start late", so
// guidance must leave it untouched) converges to the same fixed point as
// the original procedure, and the "finish early" procedure only skips
// computations whose results would repeat.

func testWP(root graph.VertexID) *Program[float64] {
	return &Program[float64]{
		Name: "test-wp",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == root {
				return math.Inf(1)
			}
			return 0
		},
		Roots:  []graph.VertexID{root},
		Relax:  func(src Value, w float32) Value { return math.Min(src, float64(w)) },
		Better: func(a, b Value) bool { return a > b },
	}
}

func testCC(n int) *Program[float64] {
	roots := make([]graph.VertexID, n)
	for v := range roots {
		roots[v] = graph.VertexID(v)
	}
	return &Program[float64]{
		Name:      "test-cc",
		Agg:       MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value { return float64(v) },
		Roots:     roots,
		Relax:     func(src Value, _ float32) Value { return src },
		Better:    func(a, b Value) bool { return a < b },
	}
}

// TestTheorem1MinMaxDelayedEqualsOriginal is the paper's Theorem 1 on
// random graphs: for every min/max program, topology, and cluster size,
// the RR execution converges to exactly the original output.
func TestTheorem1MinMaxDelayedEqualsOriginal(t *testing.T) {
	f := func(seed int64, nodesRaw, progRaw uint8) bool {
		nodes := int(nodesRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		g := gen.Uniform(n, int64(rng.Intn(8*n)), 32, seed)
		var p *Program[float64]
		switch progRaw % 3 {
		case 0:
			p = testProgram() // SSSP-shaped
		case 1:
			p = testWP(0)
		default:
			p = testCC(n)
		}
		want := runCluster(t, g, p, nodes, nil)
		got := runCluster(t, g, p, nodes, withGuidance(t, g, p))
		for v := range want.Values {
			if got.Values[v] != want.Values[v] && !(math.IsInf(got.Values[v], 1) && math.IsInf(want.Values[v], 1)) {
				t.Logf("seed=%d prog=%s nodes=%d vertex=%d rr=%v base=%v", seed, p.Name, nodes, v, got.Values[v], want.Values[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFinishEarlyOnlySkipsRepeats checks the arithmetic-side claim of §3.7
// on random graphs: with an exact stability test (StableEps 0) and the
// strict freeze rule (stableCnt > LastIter), the finish-early output
// matches the unoptimised iteration bit for bit — the skipped computations
// would have reproduced the cached value.
func TestFinishEarlyOnlySkipsRepeats(t *testing.T) {
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		g := gen.Uniform(n, int64(rng.Intn(6*n)), 4, seed)
		// NumPaths-like program that reaches an exact fixed point once the
		// frontier drains (integral values, no rounding drift).
		p := &Program[float64]{
			Name: "test-numpaths",
			Agg:  Arith,
			InitValue: func(_ graph.View, v graph.VertexID) Value {
				if v == 0 {
					return 1
				}
				return 0
			},
			Gather: func(acc, src Value, _ float32) Value { return acc + math.Min(src, 1) },
			Apply: func(_ graph.View, v graph.VertexID, acc, _ Value) Value {
				if v == 0 {
					return 1
				}
				return math.Min(acc, 1e6)
			},
			MaxIters: 12,
		}
		want := runCluster(t, g, p, nodes, nil)
		// Information originates at vertex 0, so the guidance is rooted
		// there (the same rule BeliefPropagation documents).
		gd := rrg.Generate(g, []graph.VertexID{0}, ws.New(2, true))
		got := runCluster(t, g, p, nodes, func(_ int, cfg *Config) {
			cfg.RR = true
			cfg.Guidance = gd
		})
		for v := range want.Values {
			if got.Values[v] != want.Values[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// flakyTransport injects a Send failure after a fixed number of sends.
type flakyTransport struct {
	comm.Transport
	mu        sync.Mutex
	remaining int
}

var errInjected = errors.New("injected transport failure")

func (f *flakyTransport) Send(to int, typ uint16, payload []byte) error {
	f.mu.Lock()
	f.remaining--
	fail := f.remaining < 0
	f.mu.Unlock()
	if fail {
		return errInjected
	}
	return f.Transport.Send(to, typ, payload)
}

// TestEngineSurvivesTransportFailure injects a mid-run transport failure on
// one worker: every worker must terminate (no deadlock) and the failing
// worker must surface the injected error.
func TestEngineSurvivesTransportFailure(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 29)
	for _, failAfter := range []int{0, 3, 9} {
		nodes := 3
		part, err := partition.NewChunked(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		transports, err := comm.NewLocalGroup(nodes)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		for rank := 0; rank < nodes; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr := transports[rank]
				if rank == 1 {
					tr = &flakyTransport{Transport: tr, remaining: failAfter}
				}
				eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(tr), Part: part, Sched: testSched(t, 0)})
				if err != nil {
					errs[rank] = err
					return
				}
				_, errs[rank] = eng.Run(testProgram())
				if errs[rank] != nil {
					comm.Abort(transports[rank])
				}
			}(rank)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("failAfter=%d: engine deadlocked on transport failure", failAfter)
		}
		if !errors.Is(errs[1], errInjected) {
			t.Fatalf("failAfter=%d: rank 1 error = %v, want injected", failAfter, errs[1])
		}
	}
}
