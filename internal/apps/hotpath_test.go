package apps

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// pkProxy materialises the PK dataset proxy at the given down-scale factor.
func pkProxy(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("PK")
	if err != nil {
		t.Fatal(err)
	}
	return d.Proxy(scale)
}

// steadyState returns the median per-superstep allocation count and bytes
// over the last half of the run (the supersteps after pool warm-up).
func steadyState(iters []metrics.IterStat) (allocs, bytes int64) {
	if len(iters) == 0 {
		return 0, 0
	}
	tail := iters[len(iters)/2:]
	as := make([]int64, len(tail))
	bs := make([]int64, len(tail))
	for i, s := range tail {
		as[i], bs[i] = s.HeapAllocs, s.HeapBytes
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return as[len(as)/2], bs[len(bs)/2]
}

// domWidth resolves a domain name's wire width via the authoritative core
// mapping (the guards only name built-in domains).
func domWidth(domain string) int {
	if w, ok := core.WidthOf(domain); ok {
		return w
	}
	return 8
}

// TestSteadyStateAllocBudget is the CI regression guard for the
// zero-allocation superstep hot path: a steady-state superstep (median of
// the last half of the run, single node) must stay under a deliberately
// generous fixed budget. The flat path measures ~1-2 allocs and <1KB per
// superstep; the budget trips only on a structural regression (per-superstep
// maps, goroutine spawning, fresh wire buffers), never on GC noise.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const (
		allocBudget = 256       // objects per steady-state superstep
		byteBudget  = 256 << 10 // bytes per steady-state superstep
		iters       = 20
	)
	g := pkProxy(t, 4000)
	// A single-rank tick must stay under one |V|×8 value array, so that
	// row's graph is large enough that the tick's fixed costs (the temp
	// file's name and handle) sit well below the line.
	gCkpt := pkProxy(t, 200)
	every2 := func(o *cluster.Options) { o.Ckpt = &ckpt.Manager{Dir: t.TempDir(), Every: 2} }
	cases := []struct {
		name  string
		prog  *core.Program[float64]
		nodes int
		opts  func(*cluster.Options)
		g     *graph.Graph // nil: g
	}{
		// Pull path: all-vertex arith kernel, 20 steady supersteps.
		{"PR", PageRank(iters), 1, nil, nil},
		// Push path: DenseDivisor=1 keeps the frontier kernel in push mode.
		{"SSSP-push", SSSP(0), 1, func(o *cluster.Options) { o.DenseDivisor = 1 }, nil},
		// Overlapped pipeline: two in-process workers stream delta-sync
		// during compute. The counters are process-global, so this measures
		// the whole two-worker cluster — including the transport's
		// per-message payload copies, which are inherent to delivery, not a
		// hot-path regression; the budget stays the same deliberately
		// generous bound.
		{"PR-overlapped", PageRank(iters), 2, nil, nil},
		// Checkpoint ticks every other superstep: the tick (encode into a
		// pooled buffer, background save) sits inside the measured window.
		{"PR-overlapped+Ckpt{Every: 2}", PageRank(iters), 2, every2, nil},
		{"PR+Ckpt{Every: 2}", PageRank(iters), 1, every2, gCkpt},
	}
	for _, tc := range cases {
		opt := cluster.Options{Nodes: tc.nodes, Threads: 2, Stealing: true, RR: true,
			MeasureAllocs: true, Codec: compress.Adaptive{}}
		if tc.opts != nil {
			tc.opts(&opt)
		}
		view := g
		if tc.g != nil {
			view = tc.g
		}
		res, err := cluster.Execute(view, tc.prog, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.nodes > 1 {
			m := metrics.Merge(res.PerWorker)
			if m.OverlappedSyncs == 0 {
				t.Fatalf("%s: multi-worker run never took the overlapped path", tc.name)
			}
		}
		allocs, bytes := steadyState(res.Result.Metrics.Iters)
		t.Logf("%s: %d iters, steady state %d allocs / %d bytes per superstep",
			tc.name, res.Result.Iterations, allocs, bytes)
		if m := opt.Ckpt; m != nil && tc.nodes == 1 {
			// A tick must not copy the value array: a steady superstep with
			// a tick allocates less than one |V|×8 array. One rank, so the
			// counters are this tick's alone.
			var ticks []metrics.IterStat
			for _, s := range res.Result.Metrics.Iters[len(res.Result.Metrics.Iters)/2:] {
				if m.ShouldSave(s.Iter) {
					ticks = append(ticks, s)
				}
			}
			_, tickBytes := steadyState(ticks)
			t.Logf("%s: a steady tick superstep allocates %d bytes", tc.name, tickBytes)
			if limit := int64(view.NumVertices()) * 8; len(ticks) == 0 || tickBytes >= limit {
				t.Errorf("%s: %d steady tick supersteps allocate %d bytes, want < %d (|V|×8)", tc.name, len(ticks), tickBytes, limit)
			}
		}
		if allocs > allocBudget {
			t.Errorf("%s: steady-state supersteps allocate %d objects, budget %d — the hot path regressed",
				tc.name, allocs, allocBudget)
		}
		if bytes > byteBudget {
			t.Errorf("%s: steady-state supersteps allocate %d bytes, budget %d — the hot path regressed",
				tc.name, bytes, byteBudget)
		}
	}

	// The narrow value domains run the same generic hot path; the
	// genericization must not have reintroduced per-superstep allocations
	// through boxing, closure captures or fresh conversion buffers.
	sym := Symmetrize(g)
	domainCases := []struct {
		name, app, domain string
	}{
		{"PR-f32", "pr", "f32"},
		{"SSSP-f32", "sssp", "f32"},
		{"BFS-u32", "bfs", "u32"},
		{"CC-u32", "cc", "u32"},
		{"SSSPTree-dist32", "sssp", "dist32"},
	}
	for _, tc := range domainCases {
		entry, ok := LookupRunnable(tc.app, tc.domain)
		if !ok {
			t.Fatalf("%s: no registry entry", tc.name)
		}
		view := g
		if entry.NeedsSym {
			view = sym
		}
		out, err := entry.Build(graph.VertexID(0), iters).Execute(view, cluster.Options{
			Nodes: 1, Threads: 2, Stealing: true, RR: true,
			MeasureAllocs: true, Codec: compress.Adaptive{W: domWidth(tc.domain)},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs, bytes := steadyState(out.Run.Iters)
		t.Logf("%s: %d iters, steady state %d allocs / %d bytes per superstep",
			tc.name, out.Iterations, allocs, bytes)
		if allocs > allocBudget {
			t.Errorf("%s: steady-state supersteps allocate %d objects, budget %d — generics regressed the hot path",
				tc.name, allocs, allocBudget)
		}
		if bytes > byteBudget {
			t.Errorf("%s: steady-state supersteps allocate %d bytes, budget %d — generics regressed the hot path",
				tc.name, bytes, byteBudget)
		}
	}
}

// TestWarmApplyAllocBudget bounds what one warm min/max re-execution
// allocates per vertex: the fresh value array, the two projection copies
// and the frontier and changed bitsets, and nothing else of size |V| — no
// degree scan's partition, no pull scratch a two-superstep push wave never
// touches, and no re-projection of unchanged vertices.
// Counted by TotalAlloc, so the guard is deterministic.
func TestWarmApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const n, budget = 1 << 14, 24 // budget: bytes per vertex
	g := gen.RMAT(n, 16*n, gen.DefaultRMAT, 16, 7)
	s, err := cluster.NewSession(1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entry, _ := LookupRunnable("sssp", "dist32")
	opt := cluster.Options{RR: true}
	_, resume, err := entry.Build(0, 0).ExecuteIn(s, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	added := make([]graph.Edge, 64)
	for i := range added {
		added[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: float32(1 + rng.Intn(64))}
	}
	g2, err := graph.WithEdges(g, added, n)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, _, err := resume.ExecuteWarm(s, g2, added, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("warm sssp:dist32 apply: %d supersteps, %.1f B/vertex allocated", out.Iterations, perVertex)
	if perVertex > budget {
		t.Errorf("a warm apply allocates %.1f B/vertex, budget %d", perVertex, budget)
	}
}
