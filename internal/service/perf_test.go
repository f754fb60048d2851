//go:build perf

package service_test

// Wall-clock guards. Their verdicts depend on the machine and on what else
// it is running, so they are kept out of `go test ./...` behind the perf
// tag; CI runs them with -tags perf.

import (
	"math/rand"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/service"
)

// topkPhase serves 400 /topk lookups from two readers through the HTTP
// handler in-process while a mutator applies a 4-edge batch every 40ms,
// and returns the lookup latencies, the read cache's hit rate and the
// number of batches applied. A negative capacity disables the cache.
func topkPhase(t *testing.T, g *graph.Graph, capacity int) (lat []time.Duration, hitRate float64, batches int) {
	t.Helper()
	svc, err := service.New(g, service.Config{
		Nodes: 2, Threads: 2, RR: true,
		Sessions: 2, CacheCapacity: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("sssp", "dist32", 0, 0); err != nil {
		t.Fatal(err)
	}
	h := service.Handler(svc)

	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(7))
		n := g.NumVertices()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := &service.Batch{}
			for i := 0; i < 4; i++ {
				b.Adds = append(b.Adds, graph.Edge{
					Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: 1 + float32(rng.Intn(4)),
				})
			}
			if _, err := svc.Apply(b); err != nil {
				t.Errorf("mutator: %v", err)
				return
			}
			batches++
			time.Sleep(40 * time.Millisecond)
		}
	}()

	const readers, perReader = 2, 200
	lats := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	for r := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/topk?app=sssp&domain=dist32&k=16&order=asc", nil))
				lats[r] = append(lats[r], time.Since(t0))
				if rec.Code != 200 {
					t.Errorf("GET /topk: status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutator.Wait()

	if cs := svc.Cache().Stats(); cs.Hits+cs.Misses > 0 {
		hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	return slices.Concat(lats...), hitRate, batches
}

// p99 is the nearest-rank 99th percentile.
func p99(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[int(0.99*float64(len(s)-1)+0.5)]
}

// TestServeCachedBeatsUncached is the CI guard on the serving layer's core
// promise: with mutation traffic throttled enough that snapshots live
// across many lookups, the version-pinned cache must make the cacheable
// /topk path faster at p99 than re-ranking every request. The mutator
// cadence (40ms between batches) keeps the hit rate high so the cached
// number measures hit latency, not invalidation churn.
func TestServeCachedBeatsUncached(t *testing.T) {
	d, err := gen.ByName("PK")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Proxy(400)
	uncached, uhr, ub := topkPhase(t, g, -1)
	cached, chr, cb := topkPhase(t, g, 4096)
	if t.Failed() {
		return
	}
	if uhr != 0 {
		t.Fatalf("uncached phase recorded hit rate %.2f", uhr)
	}
	// Well below this the cached p99 would measure invalidation churn, not
	// hit latency.
	if chr < 0.4 {
		t.Fatalf("cached phase hit rate %.2f too low to measure hit latency (batches=%d)", chr, cb)
	}
	up99, cp99 := p99(uncached), p99(cached)
	if cp99 >= up99 {
		t.Errorf("cached /topk p99 %v not better than uncached %v (hit rate %.2f, %d/%d batches)",
			cp99, up99, chr, cb, ub)
	}
	t.Logf("topk p99: uncached %v, cached %v (hit rate %.2f)", up99, cp99, chr)
}

// TestReadPathLatencyDuringApply bounds the blocked-read-path regression
// in wall-clock terms: while a mutation batch holds the writer lock and
// re-executes programs, /healthz and /result must keep answering from
// atomics and the pinned snapshot — p99 under 50ms (the acceptance bound;
// in practice they answer in microseconds). TestReadPathUnblockedDuringApply
// is its ordering half in tier-1.
func TestReadPathLatencyDuringApply(t *testing.T) {
	g := gen.Uniform(30000, 120000, 4, 71)
	svc, err := service.New(g, service.Config{Nodes: 1, Threads: 2, RR: true, Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// An arithmetic program with a high iteration count: warm re-execution
	// re-runs it cold, so every Apply holds the writer lock for a while.
	if _, err := svc.Register("pr", "f64", 0, 2000); err != nil {
		t.Fatal(err)
	}
	h := service.Handler(svc)

	applyStart := time.Now()
	done := make(chan error, 1)
	go func() {
		b := &service.Batch{Adds: []graph.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 5, Dst: 9, Weight: 2}}}
		_, err := svc.Apply(b)
		done <- err
	}()

	probe := func(path string) time.Duration {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != 200 {
			t.Fatalf("GET %s during Apply: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return d
	}

	var healthz, result []time.Duration
	sampling := true
	for sampling {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			sampling = false
		default:
			healthz = append(healthz, probe("/healthz"))
			result = append(result, probe("/result?app=pr&domain=f64&vertex=42"))
			time.Sleep(time.Millisecond)
		}
	}
	applyTook := time.Since(applyStart)

	// The probes must actually have overlapped the batch; a trivially fast
	// Apply would make the latency assertion vacuous.
	if len(healthz) < 10 {
		t.Fatalf("only %d probes overlapped the mutation batch (Apply took %v); slow the batch down", len(healthz), applyTook)
	}
	p99 := func(ds []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)*99/100]
	}
	const bound = 50 * time.Millisecond
	if got := p99(healthz); got >= bound {
		t.Errorf("/healthz p99 %v during Apply (bound %v, %d samples)", got, bound, len(healthz))
	}
	if got := p99(result); got >= bound {
		t.Errorf("/result p99 %v during Apply (bound %v, %d samples)", got, bound, len(result))
	}
}
