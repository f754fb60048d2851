package core

import (
	"math"
	"sync"
	"testing"

	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

func singleComm(t *testing.T) *comm.Comm {
	t.Helper()
	ts, err := comm.NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	return comm.NewComm(ts[0])
}

// testSched builds a work-stealing pool of threads workers (<=0:
// GOMAXPROCS) that is closed when the test ends.
func testSched(tb testing.TB, threads int) *ws.Scheduler {
	s := ws.New(threads, true)
	tb.Cleanup(s.Close)
	return s
}

func testProgram() *Program[float64] {
	return &Program[float64]{
		Name: "test-sssp",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == 0 {
				return 0
			}
			return math.Inf(1)
		},
		Roots:  []graph.VertexID{0},
		Relax:  func(src Value, w float32) Value { return src + float64(w) },
		Better: func(a, b Value) bool { return a < b },
	}
}

// runCluster executes p on a fresh in-process cluster and returns worker
// 0's result.
func runCluster(t *testing.T, g *graph.Graph, p *Program[float64], nodes int, mutate func(rank int, cfg *Config)) *Result[float64] {
	t.Helper()
	return runClusterAll(t, g, p, nodes, mutate)[0]
}

func testArith() *Program[float64] {
	return &Program[float64]{
		Name: "test-pr",
		Agg:  Arith,
		InitValue: func(g graph.View, v graph.VertexID) Value {
			if d := g.OutDegree(v); d > 0 {
				return 1.0 / float64(d)
			}
			return 1.0
		},
		Gather: func(acc, src Value, _ float32) Value { return acc + src },
		Apply: func(g graph.View, v graph.VertexID, acc, _ Value) Value {
			rank := 0.15 + 0.85*acc
			if d := g.OutDegree(v); d > 0 {
				return rank / float64(d)
			}
			return rank
		},
		MaxIters:  25,
		StableEps: 1e-7,
	}
}

func withGuidance(t *testing.T, g *graph.Graph, p *Program[float64]) func(int, *Config) {
	t.Helper()
	roots := p.Roots
	if len(roots) == 0 {
		roots = rrg.DefaultRoots(g)
	}
	gd := rrg.Generate(g, roots, ws.New(2, false))
	return func(_ int, cfg *Config) {
		cfg.RR = true
		cfg.Guidance = gd
	}
}

func TestNewValidation(t *testing.T) {
	g := gen.Path(10)
	part, _ := partition.NewChunked(g, 1)
	cm := singleComm(t)
	sc := testSched(t, 1)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil graph", Config{Comm: cm, Part: part, Sched: sc}},
		{"nil comm", Config{Graph: g, Part: part, Sched: sc}},
		{"nil part", Config{Graph: g, Comm: cm, Sched: sc}},
		{"nil sched", Config{Graph: g, Comm: cm, Part: part}},
		{"rr without guidance", Config{Graph: g, Comm: cm, Part: part, Sched: sc, RR: true}},
		{"guidance size mismatch", Config{Graph: g, Comm: cm, Part: part, Sched: sc, RR: true,
			Guidance: &rrg.Guidance{LastIter: make([]uint32, 3), Level: make([]uint32, 3)}}},
	}
	for _, c := range cases {
		if _, err := New[float64](c.cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
	// Partition/comm size mismatch.
	badPart, _ := partition.NewChunked(g, 3)
	if _, err := New[float64](Config{Graph: g, Comm: cm, Part: badPart, Sched: sc}); err == nil {
		t.Error("partition size mismatch accepted")
	}
	if _, err := New[float64](Config{Graph: g, Comm: cm, Part: part, Sched: sc}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestProgramValidate(t *testing.T) {
	good := testProgram()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(p *Program[float64]){
		func(p *Program[float64]) { p.Name = "" },
		func(p *Program[float64]) { p.InitValue = nil },
		func(p *Program[float64]) { p.Relax = nil },
		func(p *Program[float64]) { p.Better = nil },
		func(p *Program[float64]) { p.Roots = nil },
		func(p *Program[float64]) { p.Agg = AggKind(9) },
	}
	for i, mutate := range cases {
		p := testProgram()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid program accepted", i)
		}
	}
	arith := &Program[float64]{Name: "a", Agg: Arith, InitValue: good.InitValue}
	if err := arith.Validate(); err == nil {
		t.Error("arith without Gather/Apply accepted")
	}
}

func TestAggKindString(t *testing.T) {
	if MinMax.String() != "min/max" || Arith.String() != "arith" {
		t.Fatal("AggKind strings wrong")
	}
}

func TestRunOnSingleWorker(t *testing.T) {
	g := gen.Path(50)
	part, _ := partition.NewChunked(g, 1)
	eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 50; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, res.Values[v])
		}
	}
	if res.Iterations == 0 || res.Metrics.Computations() == 0 {
		t.Fatal("metrics empty")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil)
	part, _ := partition.NewChunked(g, 1)
	eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	p := testProgram()
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatal("values non-empty")
	}
}

func TestRootOutOfRangeIgnored(t *testing.T) {
	g := gen.Path(5)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0)})
	p := testProgram()
	p.Roots = []graph.VertexID{99} // silently out of range: no activity
	p.InitValue = func(_ graph.View, _ graph.VertexID) Value { return math.Inf(1) }
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if !math.IsInf(v, 1) {
			t.Fatal("phantom activity from out-of-range root")
		}
	}
}

// The wire codecs themselves are tested in internal/compress; here we check
// the engine produces identical results whichever codec carries its deltas.
func TestCodecsProduceIdenticalResults(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 3)
	run := func(c compress.Codec) []Value {
		part, err := partition.NewChunked(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]Value, 3)
		transports, err := comm.NewLocalGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for rank := 0; rank < 3; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				defer transports[rank].Close()
				eng, err := New[float64](Config{Graph: g, Comm: comm.NewComm(transports[rank]), Part: part, Sched: testSched(t, 0), Codec: c})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := eng.Run(testProgram())
				if err != nil {
					t.Error(err)
					return
				}
				results[rank] = res.Values
			}(rank)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatal("worker failed")
		}
		for rank := 1; rank < 3; rank++ {
			for v := range results[0] {
				if results[rank][v] != results[0][v] {
					t.Fatalf("rank %d vertex %d: %v vs %v", rank, v, results[rank][v], results[0][v])
				}
			}
		}
		return results[0]
	}
	raw := run(compress.Raw{})
	ad := run(compress.Adaptive{})
	for v := range raw {
		if raw[v] != ad[v] {
			t.Fatalf("vertex %d: raw %v, adaptive %v", v, raw[v], ad[v])
		}
	}
}

// suppressedByFirstPull counts the vertices the run's first pull round
// suppressed: those whose LastIter lies beyond that round's ruler. Later
// pull rounds run at larger rulers and suppress subsets of them, so this is
// the number of distinct vertices "start late" ever held back.
func suppressedByFirstPull(res *Result[float64], gd *rrg.Guidance) (held int64) {
	for _, s := range res.Metrics.Iters {
		if s.Mode != metrics.Pull {
			continue
		}
		for _, li := range gd.LastIter {
			if int(li) > s.Iter {
				held++
			}
		}
		break
	}
	return held
}

// checkRepaid asserts the start-late accounting: values equal the RR-off
// run, and every vertex a pull round suppressed is repaid by exactly one
// counted catch-up (a full in-degree scan at its first eligible pull).
func checkRepaid(t *testing.T, base, rr *Result[float64], gd *rrg.Guidance) {
	t.Helper()
	for v := range base.Values {
		if base.Values[v] != rr.Values[v] {
			t.Fatalf("RR changed result at %d: %v vs %v", v, base.Values[v], rr.Values[v])
		}
	}
	var catchups int64
	for _, s := range rr.Metrics.Iters {
		catchups += s.CatchUps
	}
	held := suppressedByFirstPull(rr, gd)
	if held == 0 || rr.Metrics.Suppressed() < held {
		t.Errorf("first pull round held back %d vertices, %d suppressions counted", held, rr.Metrics.Suppressed())
	}
	if catchups != held {
		t.Errorf("catch-ups = %d, want one per held-back vertex = %d", catchups, held)
	}
}

func TestRRSuppressesWork(t *testing.T) {
	// Star + chain: the root eagerly gives every vertex an expensive direct
	// distance (3v) that the chain later improves to 2v+1, one vertex per
	// round for 800 rounds, all of them pull rounds here.
	//
	// What RR saves on this graph: nothing. LastIter is 1 for vertex 1 and 2
	// for the rest (every in-neighbour sits at BFS level <= 1), so the pull
	// at ruler 0 suppresses all 799 non-roots, nothing changes, and the Ruler
	// jumps to 2 for the closing pull, which charges each of them its full
	// in-degree (1597 in-edges where the baseline's first round counts the
	// 799 whose source, the root, is active). From there the two runs are the
	// same: RR-off 800 supersteps / 319600 computations, RR 801 / 320398.
	const n = 800
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v), Weight: float32(3 * v)})
		if v+1 < n {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 2})
		}
	}
	g := graph.MustBuild(n, edges)
	part, _ := partition.NewChunked(g, 1)
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)

	run := func(rr bool) *Result[float64] {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), RR: rr, Guidance: gd,
			DenseDivisor: 1 << 20}) // force pull mode to exercise the RR path
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(testProgram())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	rr := run(true)
	checkRepaid(t, base, rr, gd)
	if got := rr.Metrics.Suppressed(); got != n-1 {
		t.Errorf("suppressed %d vertices, want every non-root once = %d", got, n-1)
	}
	if b, r := base.Metrics.Computations(), rr.Metrics.Computations(); b != 319600 || r != b+n-2 {
		t.Errorf("computations: RR-off %d (want 319600), RR %d (want RR-off + %d: the closing pull's inactive chain in-edges)", b, r, n-2)
	}
	if rr.Iterations != base.Iterations+1 {
		t.Errorf("supersteps: RR %d, RR-off %d, want exactly the suppressed first round more", rr.Iterations, base.Iterations)
	}
}

func TestRRWidestPathReducesComputations(t *testing.T) {
	// The paper's Figure 1 redundancy pattern, generalised: a hub whose
	// value improves once per iteration (each chain vertex offers a wider
	// bottleneck path), fanned out to many destinations. The baseline
	// re-relaxes every hub out-edge after each improvement.
	//
	// What RR saves on this graph since PR 18: nothing, and the name is kept
	// only so the history of this test stays findable. Through PR 16 the
	// Ruler advanced to the nearest owed LastIter, the hub stayed suppressed
	// until its final value (LastIter 60) and the fan-out was relaxed once:
	// 2119 counted computations against the baseline's 120119. Now the pull
	// at ruler 0 suppresses all 2060 non-roots, nothing changes, and the
	// Ruler jumps to max(LastIter) = 60: the closing pull starts the hub
	// together with everything else (2119 computations, every in-edge), after
	// which the hub improves 59 more times exactly as in the baseline —
	// 122236 = 120119 + 2117. The jump is what takes R-MAT from 7-8 dense
	// pull rounds per SSSP root to 5 (CHANGES.md, PR 18); this is its price.
	const k = 60   // chain length = number of hub improvements
	const m = 2000 // fan-out destinations
	const hub = k  // vertex ids: chain 0..k-1, hub k, fan-out k+1..k+m
	var edges []graph.Edge
	for i := 0; i+1 < k; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1000})
	}
	for i := 0; i < k; i++ {
		// Path via chain vertex i has bottleneck width i+1: the hub's
		// widest path improves at every iteration.
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: hub, Weight: float32(i + 1)})
	}
	for j := 0; j < m; j++ {
		edges = append(edges, graph.Edge{Src: hub, Dst: graph.VertexID(k + 1 + j), Weight: 1000})
	}
	g := graph.MustBuild(k+1+m, edges)
	part, _ := partition.NewChunked(g, 1)
	gd := rrg.Generate(g, []graph.VertexID{0}, nil)
	prog := &Program[float64]{
		Name: "wp",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == 0 {
				return math.Inf(1)
			}
			return 0
		},
		Roots:  []graph.VertexID{0},
		Relax:  func(src Value, w float32) Value { return math.Min(src, float64(w)) },
		Better: func(a, b Value) bool { return a > b },
	}
	run := func(rr bool) *Result[float64] {
		eng, err := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), RR: rr, Guidance: gd,
			DenseDivisor: 1 << 20}) // force pull mode to exercise the RR path
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	rr := run(true)
	checkRepaid(t, base, rr, gd)
	// The hub's final width is k (widest chain detour).
	if base.Values[hub] != k {
		t.Fatalf("hub width %v, want %d", base.Values[hub], k)
	}
	if b, r := base.Metrics.Computations(), rr.Metrics.Computations(); b != 120119 || r != 122236 {
		t.Errorf("computations: RR-off %d (want 120119), RR %d (want 122236)", b, r)
	}
}

func TestMaxItersBoundsArith(t *testing.T) {
	g := gen.Uniform(100, 500, 1, 3)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0)})
	p := &Program[float64]{
		Name:       "pr",
		Agg:        Arith,
		InitValue:  func(graph.View, graph.VertexID) Value { return 1 },
		GatherInit: 0,
		Gather:     func(acc, src Value, _ float32) Value { return acc + src },
		Apply:      func(_ graph.View, _ graph.VertexID, acc, _ Value) Value { return 0.5 * acc },
		MaxIters:   7,
	}
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 {
		t.Fatalf("Iterations = %d, want 7", res.Iterations)
	}
}

func TestEpsilonTerminatesArith(t *testing.T) {
	g := gen.Uniform(100, 500, 1, 4)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0)})
	p := &Program[float64]{
		Name:       "decay",
		Agg:        Arith,
		InitValue:  func(graph.View, graph.VertexID) Value { return 1 },
		GatherInit: 0,
		Gather:     func(acc, src Value, _ float32) Value { return acc },
		Apply:      func(_ graph.View, _ graph.VertexID, _, prev Value) Value { return prev / 2 },
		MaxIters:   1000,
		Epsilon:    1e-3,
	}
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 1000 || res.Iterations < 5 {
		t.Fatalf("Iterations = %d, expected epsilon stop around 11", res.Iterations)
	}
}

func TestTrackLastChange(t *testing.T) {
	g := gen.Path(6)
	part, _ := partition.NewChunked(g, 1)
	eng, _ := New[float64](Config{Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 0), TrackLastChange: true})
	res, err := eng.Run(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.LastChange == nil {
		t.Fatal("LastChange not tracked")
	}
	// On a path, vertex v settles at iteration v (push cascade).
	for v := 1; v < 6; v++ {
		if res.LastChange[v] < res.LastChange[v-1] {
			t.Fatalf("LastChange not monotone along path: %v", res.LastChange)
		}
	}
	if res.LastChange[0] != 0 {
		t.Fatalf("root LastChange = %d", res.LastChange[0])
	}
}

// A partially-built custom domain (hooks set, no Name) must be rejected,
// not silently replaced by the built-in default (which would drop the
// custom hooks).
func TestValidateRejectsPartialDomain(t *testing.T) {
	p := testProgram()
	p.Dom.Delta = func(a, b Value) float64 { return 1 }
	if err := p.Validate(); err == nil {
		t.Fatal("program with nameless partial domain accepted")
	}
	// WidthOf is the single name -> width source of truth.
	for name, want := range map[string]int{"f64": 8, "f32": 4, "u32": 4, "dist32": 8} {
		if w, ok := WidthOf(name); !ok || w != want {
			t.Fatalf("WidthOf(%q) = %d, %v; want %d", name, w, ok, want)
		}
	}
	if _, ok := WidthOf("f16"); ok {
		t.Fatal("WidthOf accepted an unknown domain")
	}
}
