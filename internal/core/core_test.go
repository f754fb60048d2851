package core

import (
	"math"
	"sync"
	"testing"

	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
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
	gd := rrg.Generate(g, roots, ws.New(2, true))
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
