package service_test

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

// concurrentMatrix is the program mix the concurrency tests register: both
// aggregation classes, three wire widths, the symmetrised-graph app, and
// the composite dist32 domain (parent trees).
var concurrentMatrix = []struct {
	key, domain string
	root        graph.VertexID
	iters       int
}{
	{"sssp", "f64", 0, 0},
	{"sssp", "dist32", 0, 0},
	{"bfs", "u32", 0, 0},
	{"cc", "u32", 0, 0},
	{"pr", "f64", 0, 8},
}

func newMatrixService(t *testing.T, g *graph.Graph, sessions int) *service.Service {
	t.Helper()
	svc, err := service.New(g, service.Config{
		Nodes: 2, Threads: 2, RR: true, Sessions: sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for _, reg := range concurrentMatrix {
		if _, err := svc.Register(reg.key, reg.domain, reg.root, reg.iters); err != nil {
			t.Fatalf("register %s:%s: %v", reg.key, reg.domain, err)
		}
	}
	return svc
}

// TestConcurrentMatchesSerial is the scheduler's differential oracle:
// re-executing every registered program concurrently over a 4-session pool
// must be bit-identical — values and parent trees — to the serial
// single-session path, batch after batch. Program executions share no
// mutable state, so concurrency must be invisible in the results.
func TestConcurrentMatchesSerial(t *testing.T) {
	build := func() *graph.Graph { return gen.Uniform(250, 1000, 4, 59) }
	serial := newMatrixService(t, build(), 1)
	concurrent := newMatrixService(t, build(), 4)

	apply := func(svc *service.Service, seed int64, n int) (*service.Snapshot, error) {
		rng := rand.New(rand.NewSource(seed))
		b := &service.Batch{}
		for i := 0; i < 40; i++ {
			b.Adds = append(b.Adds, graph.Edge{
				Src:    graph.VertexID(rng.Intn(n)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: 1 + float32(rng.Intn(5)),
			})
		}
		return svc.Apply(b)
	}

	n := 250
	for batch := 0; batch < 3; batch++ {
		seed := int64(100 + batch)
		ss, err := apply(serial, seed, n)
		if err != nil {
			t.Fatalf("serial batch %d: %v", batch, err)
		}
		cs, err := apply(concurrent, seed, n)
		if err != nil {
			t.Fatalf("concurrent batch %d: %v", batch, err)
		}
		for _, reg := range concurrentMatrix {
			id := service.ProgramID(reg.key, reg.domain)
			sp, cp := ss.Programs[id], cs.Programs[id]
			if sp == nil || cp == nil {
				t.Fatalf("batch %d: %s missing", batch, id)
			}
			if len(sp.Outcome.Values) != len(cp.Outcome.Values) {
				t.Fatalf("batch %d: %s: %d vs %d values", batch, id, len(sp.Outcome.Values), len(cp.Outcome.Values))
			}
			for v := range sp.Outcome.Values {
				if math.Float64bits(sp.Outcome.Values[v]) != math.Float64bits(cp.Outcome.Values[v]) {
					t.Fatalf("batch %d: %s: vertex %d: serial %g vs concurrent %g (not bit-identical)",
						batch, id, v, sp.Outcome.Values[v], cp.Outcome.Values[v])
				}
			}
			if (sp.Outcome.Parents == nil) != (cp.Outcome.Parents == nil) {
				t.Fatalf("batch %d: %s: parent tree presence differs", batch, id)
			}
			for v := range sp.Outcome.Parents {
				if sp.Outcome.Parents[v] != cp.Outcome.Parents[v] {
					t.Fatalf("batch %d: %s: vertex %d: serial parent %d vs concurrent %d",
						batch, id, v, sp.Outcome.Parents[v], cp.Outcome.Parents[v])
				}
			}
		}
	}
}

// TestConcurrentReadsDuringSnapshotSwaps races every read endpoint against
// mutation batches and a late registration over a multi-session pool; run
// under -race in CI it proves the read path shares no unsynchronised state
// with the writer.
func TestConcurrentReadsDuringSnapshotSwaps(t *testing.T) {
	g := gen.Uniform(150, 600, 4, 61)
	svc, err := service.New(g, service.Config{
		Nodes: 1, Threads: 2, RR: true, Sessions: 2, CacheCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("sssp", "dist32", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("pr", "f64", 0, 5); err != nil {
		t.Fatal(err)
	}
	h := service.Handler(svc)

	stop := make(chan struct{})
	// cycled counts the readers that have sent every path once. The cache
	// check below waits on it, not on how the readers were scheduled
	// against the batches: five batches can all apply before a reader
	// reaches a cached endpoint.
	var wg, cycled sync.WaitGroup
	paths := []string{
		"/healthz",
		"/stats",
		"/result?app=sssp&domain=dist32&vertex=3",
		"/topk?app=pr&domain=f64&k=5",
		"/topk?app=sssp&domain=dist32&k=5&order=asc",
		"/route?app=sssp&domain=dist32&from=0&to=7",
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		cycled.Add(1)
		go func(r int) {
			defer wg.Done()
			cycle := sync.OnceFunc(cycled.Done)
			defer cycle() // a reader that fails early must not block the wait
			for i := 0; ; i++ {
				if i == len(paths) {
					cycle()
				}
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", paths[(r+i)%len(paths)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case 200, 404, 429: // 404: unreached route targets are fine
				default:
					t.Errorf("GET %s: unexpected status %d: %s", paths[(r+i)%len(paths)], rec.Code, rec.Body.String())
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	for batch := 0; batch < 5; batch++ {
		b := &service.Batch{}
		for i := 0; i < 25; i++ {
			b.Adds = append(b.Adds, graph.Edge{
				Src:    graph.VertexID(rng.Intn(n)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: 1,
			})
		}
		if _, err := svc.Apply(b); err != nil {
			t.Fatal(err)
		}
		if batch == 2 {
			if _, err := svc.Register("bfs", "u32", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycled.Wait()
	close(stop)
	wg.Wait()

	// The cache must have both served hits and invalidated on version swaps.
	cs := svc.Cache().Stats()
	if cs.Hits == 0 && cs.Misses == 0 {
		t.Fatal("cache never consulted by the read endpoints")
	}
}

// TestRegisterRootValidation: the root range check must run unconditionally
// — before any runner is built — including for root 0, which is only valid
// when the graph has at least one vertex.
func TestRegisterRootValidation(t *testing.T) {
	empty := graph.MustBuild(0, nil)
	small := gen.Uniform(50, 200, 4, 67)

	cases := []struct {
		name    string
		g       *graph.Graph
		root    graph.VertexID
		wantErr bool
	}{
		{"root-0-empty-graph", empty, 0, true},
		{"root-0-valid", small, 0, false},
		{"root-last-valid", small, 49, false},
		{"root-equal-n", small, 50, true},
		{"root-far-out-of-range", small, 1 << 20, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := service.New(tc.g, service.Config{Nodes: 1, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			_, err = svc.Register("sssp", "f64", tc.root, 0)
			if tc.wantErr && err == nil {
				t.Fatalf("root %d on %d vertices: accepted, want rejection", tc.root, tc.g.NumVertices())
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("root %d on %d vertices: %v", tc.root, tc.g.NumVertices(), err)
			}
			if tc.wantErr {
				wantMsg := fmt.Sprintf("root %d outside", tc.root)
				if got := err.Error(); !contains(got, wantMsg) {
					t.Fatalf("error %q does not name the root check (%q)", got, wantMsg)
				}
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
