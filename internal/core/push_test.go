package core

import (
	"math"
	"slices"
	"testing"

	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
)

// serialMinMax is the independent reference for the push/pull matrix: a
// single-threaded synchronous (BSP) fixed point over the program's hooks.
// Every frontier vertex relaxes each out-edge once per superstep (one
// computation) and every vertex that improved commits once (one update) —
// the accounting both engine modes must reproduce.
func serialMinMax(g *graph.Graph, p *Program[float64]) (vals []Value, comps, updates int64) {
	n := g.NumVertices()
	vals = make([]Value, n)
	for v := range vals {
		vals[v] = p.InitValue(g, graph.VertexID(v))
	}
	frontier := append([]graph.VertexID(nil), p.Roots...)
	for len(frontier) > 0 {
		best := map[graph.VertexID]Value{}
		for _, v := range frontier {
			ws := g.OutWeights(v)
			for i, u := range g.OutNeighbors(v) {
				comps++
				cand := p.Relax(vals[v], ws[i])
				if cur, ok := best[u]; !ok || p.Better(cand, cur) {
					best[u] = cand
				}
			}
		}
		frontier = frontier[:0]
		for u, cand := range best {
			if p.Better(cand, vals[u]) {
				vals[u] = cand
				updates++
				frontier = append(frontier, u)
			}
		}
	}
	return vals, comps, updates
}

// Forced-push (DenseDivisor=1: push whenever the frontier is non-empty) and
// forced-pull supersteps must both land bit-identical on the serial
// reference, on every thread count and codec, for both aggregation orders
// (min-Better SSSP-style and max-Better widest-path-style) — and account
// the same work as the reference: one computation per (frontier vertex,
// out-edge) and one update per improved vertex per superstep, in either
// mode, since only a vertex's owner relaxes and commits it. Run under
// -race this also asserts the per-thread append buffers are never shared
// across threads.
func TestPushMatchesPullAndSerialReference(t *testing.T) {
	const nodes = 3
	g := gen.RMAT(768, 6144, gen.DefaultRMAT, 8, 29)
	maxProg := &Program[float64]{
		Name: "widest-test",
		Agg:  MinMax,
		InitValue: func(_ graph.View, v graph.VertexID) Value {
			if v == 0 {
				return math.Inf(1)
			}
			return 0
		},
		Roots:  []graph.VertexID{0},
		Relax:  func(srcVal Value, w float32) Value { return math.Min(srcVal, float64(w)) },
		Better: func(a, b Value) bool { return a > b },
	}
	totals := func(rs []*Result[float64]) (comps, updates int64) {
		for _, r := range rs {
			comps += r.Metrics.Computations()
			updates += r.Metrics.Updates()
		}
		return comps, updates
	}
	for _, prog := range []*Program[float64]{testProgram(), maxProg} {
		want, wantComps, wantUpdates := serialMinMax(g, prog)
		for _, threads := range []int{1, 4} {
			for _, codec := range []compress.Codec{nil, compress.Adaptive{}} {
				run := func(denseDivisor int64, mode metrics.Mode) []*Result[float64] {
					rs := runClusterAll(t, g, prog, nodes, func(_ int, cfg *Config) {
						cfg.DenseDivisor = denseDivisor
						cfg.Sched = testSched(t, threads)
						cfg.Codec = codec
					})
					for rank, r := range rs {
						if !sameValues(r.Values, want) {
							t.Fatalf("%s threads=%d codec=%v %v: rank %d differs from the serial reference",
								prog.Name, threads, codec, mode, rank)
						}
						for _, it := range r.Metrics.Iters {
							if it.Mode != mode {
								t.Fatalf("%s threads=%d codec=%v: superstep %d ran %v, want forced %v",
									prog.Name, threads, codec, it.Iter, it.Mode, mode)
							}
						}
					}
					return rs
				}
				pc, pu := totals(run(1, metrics.Push))
				lc, lu := totals(run(math.MaxInt64, metrics.Pull))
				if pc != wantComps || lc != wantComps {
					t.Fatalf("%s threads=%d codec=%v: push counted %d computations, pull %d, reference %d",
						prog.Name, threads, codec, pc, lc, wantComps)
				}
				if pu != wantUpdates || lu != wantUpdates {
					t.Fatalf("%s threads=%d codec=%v: push counted %d updates, pull %d, reference %d",
						prog.Name, threads, codec, pu, lu, wantUpdates)
				}
			}
		}
	}
}

// poisonIDs overwrites a pooled id buffer's full capacity with an
// out-of-range sentinel.
func poisonIDs(s []uint32) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = math.MaxUint32
	}
}

func poisonVals(s []float64) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = math.NaN()
	}
}

// Pooled buffers must never leak stale contents into a later run: poison
// every engine-owned data buffer between two runs of the same engine and
// require bit-identical results.
func TestPooledBuffersSurvivePoisoning(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 31)
	part, err := partition.NewChunked(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram()
	mk := func() *Engine[float64] {
		eng, err := New[float64](Config{
			Graph: g, Comm: singleComm(t), Part: part, Sched: testSched(t, 2),
			DenseDivisor: 1, // force push supersteps
			Codec:        compress.Adaptive{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref, err := mk().Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	eng := mk()
	if _, err := eng.Run(prog); err != nil {
		t.Fatal(err)
	}
	// Poison every pooled data buffer the first run left behind.
	pushed := 0
	for _, b := range eng.pushBufs {
		pushed += cap(b.ids)
		poisonIDs(b.ids)
		poisonVals(b.vals)
	}
	if pushed == 0 {
		t.Fatal("push path never ran; DenseDivisor=1 should force push supersteps")
	}
	for i := range eng.bits.parts {
		poisonIDs(eng.bits.parts[i])
	}

	again, err := eng.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(ref.Values, again.Values) {
		t.Fatal("poisoned pooled buffers leaked into a later run's results")
	}
}

// A rank folds its own proposals straight into its values, one update per
// improved vertex: a vertex that two frontier vertices improve in one push
// superstep, through proposals the append buffer cannot combine (another
// destination sits between them), counts once, as in the serial reference.
func TestOwnProposalsCountOneUpdatePerVertex(t *testing.T) {
	// Superstep 1 pushes from {1, 2}: 1 offers 3 the distance 11, then 4 the
	// distance 2, then 2 offers 3 the distance 2.
	g := graph.MustBuild(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 10}, {Src: 1, Dst: 4, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
	})
	res := runClusterAll(t, g, testProgram(), 1, func(_ int, cfg *Config) {
		cfg.DenseDivisor = 1
		cfg.Sched = testSched(t, 1)
	})[0]
	var got []int64
	for _, it := range res.Metrics.Iters {
		if it.Mode != metrics.Push {
			t.Fatalf("superstep %d ran %v, want push", it.Iter, it.Mode)
		}
		got = append(got, it.Updates)
	}
	want, _, wantUpdates := serialMinMax(g, testProgram())
	if !sameValues(res.Values, want) {
		t.Fatalf("values %v, serial reference %v", res.Values, want)
	}
	if !slices.Equal(got, []int64{2, 2, 0}) || res.Metrics.Updates() != wantUpdates {
		t.Fatalf("per-superstep updates %v (total %d), want [2 2 0] (serial reference %d)", got, res.Metrics.Updates(), wantUpdates)
	}
}

// The same count on several ranks: each rank folds only the proposals for
// the vertices it owns, so a vertex improved through two sources that
// different ranks own still counts once, and the summed updates equal the
// serial reference's at any rank count. Superstep 1 pushes from {1, 2}: 1
// offers 3 the distance 2 and 2 offers it 11.
func TestPushCountsOneUpdatePerVertexOnEveryRankCount(t *testing.T) {
	g := graph.MustBuild(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1}, {Src: 2, Dst: 3, Weight: 10}, {Src: 4, Dst: 5, Weight: 1},
	})
	want, _, wantUpdates := serialMinMax(g, testProgram())
	for nodes := 1; nodes <= 3; nodes++ {
		rs := runClusterAll(t, g, testProgram(), nodes, func(_ int, cfg *Config) {
			cfg.DenseDivisor = 1
			cfg.Sched = testSched(t, 1)
		})
		var updates int64
		for rank, r := range rs {
			if !sameValues(r.Values, want) {
				t.Fatalf("nodes=%d rank %d: values %v, serial reference %v", nodes, rank, r.Values, want)
			}
			for _, it := range r.Metrics.Iters {
				if it.Mode != metrics.Push {
					t.Fatalf("nodes=%d rank %d: superstep %d ran %v, want push", nodes, rank, it.Iter, it.Mode)
				}
			}
			updates += r.Metrics.Updates()
		}
		if updates != wantUpdates {
			t.Errorf("nodes=%d: %d updates summed over ranks, serial reference %d", nodes, updates, wantUpdates)
		}
	}
}
