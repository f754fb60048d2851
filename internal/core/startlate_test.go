// Tests of the min/max pull contract: every pull relaxes all in-edges, the
// count is one per edge whose source is active whichever rank takes it, and
// guidance, wherever it came from, leaves a min/max run untouched.
package core_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/store"
	"slfe/internal/ws"
)

// TestStartLateSoundForArbitraryGuidance hands the engine itself RR and
// LastIter arrays no Generate produced — all-zero, all-equal, random, and
// random with a maximum far beyond the run length — for SSSP, CC and WP,
// forcing all-pull, all-push and the default switch, on 1 and 2 ranks. A
// min/max run applies no start late, so on every rank the values and every
// superstep's iteration, mode, active count, Computations, Updates and
// Suppressed must equal the RR-off run's.
func TestStartLateSoundForArbitraryGuidance(t *testing.T) {
	g := gen.RMAT(512, 4096, gen.DefaultRMAT, 8, 29)
	sym := apps.Symmetrize(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(5))
	fill := func(f func(v int) uint32) []uint32 {
		li := make([]uint32, n)
		for v := range li {
			li[v] = f(v)
		}
		return li
	}
	guidances := map[string][]uint32{
		"zero":   fill(func(int) uint32 { return 0 }),
		"equal":  fill(func(int) uint32 { return 3 }),
		"random": fill(func(int) uint32 { return uint32(rng.Intn(9)) }),
		"far": fill(func(v int) uint32 {
			if v%97 == 0 {
				return 1 << 20 // far beyond any run's length
			}
			return uint32(rng.Intn(5))
		}),
	}
	divisors := map[string]int64{"pull": 1 << 40, "push": 1, "default": 0}
	progs := map[string]struct {
		g *graph.Graph
		p *core.Program[float64]
	}{
		"sssp": {g, apps.SSSP(0)},
		"cc":   {sym, apps.CC(sym)},
		"wp":   {g, apps.WP(0)},
	}
	for pname, pr := range progs {
		for dname, dd := range divisors {
			for _, nodes := range []int{1, 2} {
				wantVals, wantSteps, err := runEngines(pr.g, pr.p, nodes, dd, nil)
				if err != nil {
					t.Fatal(err)
				}
				for gname, lastIter := range guidances {
					label := fmt.Sprintf("%s/%s/%s/nodes=%d", pname, gname, dname, nodes)
					gd := &rrg.Guidance{LastIter: lastIter, Level: make([]uint32, n)} // MaxLastIter left zero on purpose
					vals, steps, err := runEngines(pr.g, pr.p, nodes, dd, gd)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bitIdentical(vals, wantVals) {
						t.Fatalf("%s: values differ from the RR-off run", label)
					}
					for rank := range steps {
						if !slices.Equal(steps[rank], wantSteps[rank]) {
							t.Fatalf("%s rank %d: supersteps differ from the RR-off run\n got  %v\n want %v", label, rank, steps[rank], wantSteps[rank])
						}
					}
				}
			}
		}
	}
}

// stepStat is the deterministic part of one superstep's metrics.IterStat.
type stepStat struct {
	iter                               int
	mode                               metrics.Mode
	active, comps, updates, suppressed int64
}

// runEngines runs p on nodes in-process ranks of 2 threads each, built
// straight from core.Config so that gd reaches the engine (RR on when gd
// is non-nil), and returns rank 0's values and every rank's supersteps.
func runEngines(g *graph.Graph, p *core.Program[float64], nodes int, dd int64, gd *rrg.Guidance) ([]float64, [][]stepStat, error) {
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*core.Result[float64], nodes)
	err = cluster.SPMD(nodes, func(rank int, cm *comm.Comm) error {
		sched := ws.New(2, false)
		defer sched.Close()
		eng, err := core.New[float64](core.Config{Graph: g, Comm: cm, Part: part, Sched: sched,
			RR: gd != nil, Guidance: gd, DenseDivisor: dd})
		if err != nil {
			return err
		}
		results[rank], err = eng.Run(p)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	steps := make([][]stepStat, nodes)
	for rank, r := range results {
		for _, s := range r.Metrics.Iters {
			steps[rank] = append(steps[rank], stepStat{s.Iter, s.Mode, s.ActiveVerts, s.Computations, s.Updates, s.Suppressed})
		}
	}
	return results[0].Values, steps, nil
}

// step is one superstep's mode and counted work.
type step struct {
	mode           metrics.Mode
	comps, updates int64
}

// TestRROffSuperstepCountsPinned pins the RR-off mode sequence and the
// per-superstep Computations/Updates of four min/max programs to the numbers
// the frontier-filtered pull of PR 16 produced: relaxing every in-edge must
// change neither what a pull round computes nor what it counts (one
// computation per in-edge whose source is active).
func TestRROffSuperstepCountsPinned(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 16, 91)
	sym := apps.Symmetrize(g)
	const pull, push = metrics.Pull, metrics.Push
	for _, pin := range []struct {
		name string
		run  func() ([]metrics.IterStat, error)
		want []step
	}{
		{"sssp", func() ([]metrics.IterStat, error) { return rrOffIters(g, apps.SSSP(0)) },
			[]step{{push, 783, 392}, {pull, 11372, 1062}, {pull, 9655, 583}, {pull, 3164, 132}, {push, 354, 9}, {push, 18, 1}, {push, 0, 0}}},
		{"bfs/u32", func() ([]metrics.IterStat, error) { return rrOffIters(g, apps.BFSU32(0)) },
			[]step{{push, 783, 392}, {pull, 11372, 855}, {pull, 3784, 75}, {push, 100, 2}, {push, 1, 0}}},
		{"cc", func() ([]metrics.IterStat, error) { return rrOffIters(sym, apps.CC(sym)) },
			[]step{{pull, 32768, 1477}, {pull, 31101, 1002}, {pull, 5349, 50}, {push, 55, 2}, {push, 2, 0}}},
		{"wp", func() ([]metrics.IterStat, error) { return rrOffIters(g, apps.WP(0)) },
			[]step{{push, 783, 392}, {pull, 11372, 1096}, {pull, 11505, 582}, {pull, 4850, 121}, {pull, 1096, 21}, {push, 201, 4}, {push, 21, 1}, {push, 3, 0}}},
	} {
		iters, err := pin.run()
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		got := make([]step, len(iters))
		for i, s := range iters {
			got[i] = step{s.Mode, s.Computations, s.Updates}
		}
		if !slices.Equal(got, pin.want) {
			t.Errorf("%s: per-superstep {mode comps updates}\n got  %v\n want %v", pin.name, got, pin.want)
		}
	}
}

// TestComputationsSumOverRanks runs four min/max programs with RR on and
// off at 1, 2 and 4 in-process ranks, over the heap graph, its mmap'd .slfc
// and a graph.WithEdges version whose out-degrees go through the patch. A
// rank counts a superstep outside a ruled pull round by the out-degrees of
// the frontier vertices it owns (the source's owner), and a ruled round by
// the in-lists it pulls (the destination's owner). Either way the mode
// sequence and the per-superstep Computations summed over ranks must equal
// the one-rank run's.
func TestComputationsSumOverRanks(t *testing.T) {
	g := gen.RMAT(2048, 16384, gen.DefaultRMAT, 16, 91)
	sym := apps.Symmetrize(g)
	// 300 added edges stay under |E|/16, so WithEdges patches instead of
	// compacting; 16 new vertices are reached only through the batch.
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices() + 16
	batch := make([]graph.Edge, 300)
	mirrored := make([]graph.Edge, 0, 2*len(batch))
	for i := range batch {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), Weight: float32(1 + rng.Intn(16))}
		batch[i] = e
		mirrored = append(mirrored, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	patched, err := graph.WithEdges(g, batch, n)
	if err != nil {
		t.Fatal(err)
	}
	patchedSym, err := graph.WithEdges(sym, mirrored, n)
	if err != nil {
		t.Fatal(err)
	}
	slfc := func(h *graph.Graph, name string) graph.View {
		path := filepath.Join(t.TempDir(), name)
		if err := store.Write(path, h); err != nil {
			t.Fatal(err)
		}
		sg, err := store.OpenBudget(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sg.Close() })
		return sg
	}
	views := []struct {
		name     string
		dir, sym graph.View
	}{
		{"heap", g, sym},
		{"slfc", slfc(g, "g.slfc"), slfc(sym, "sym.slfc")},
		{"patched", patched, patchedSym},
	}
	for _, v := range views {
		for _, rr := range []bool{false, true} {
			for _, pr := range []struct {
				name string
				run  func(nodes int) ([]step, error)
			}{
				{"sssp", func(nodes int) ([]step, error) { return summedSteps(v.dir, apps.SSSP(0), nodes, rr) }},
				{"bfs/u32", func(nodes int) ([]step, error) { return summedSteps(v.dir, apps.BFSU32(0), nodes, rr) }},
				{"cc", func(nodes int) ([]step, error) { return summedSteps(v.sym, apps.CC(v.sym), nodes, rr) }},
				{"wp", func(nodes int) ([]step, error) { return summedSteps(v.dir, apps.WP(0), nodes, rr) }},
			} {
				label := fmt.Sprintf("%s/%s/rr=%v", v.name, pr.name, rr)
				want, err := pr.run(1)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, nodes := range []int{2, 4} {
					got, err := pr.run(nodes)
					if err != nil {
						t.Fatalf("%s nodes=%d: %v", label, nodes, err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s nodes=%d: per-superstep {mode comps} summed over ranks\n got  %v\n want %v", label, nodes, got, want)
					}
				}
			}
		}
	}
}

// summedSteps runs p on nodes in-process ranks and returns each superstep's
// mode and Computations summed over the ranks. Updates are left out: on
// several ranks a vertex two ranks improve in one push may count once or
// twice, depending on which proposal applies first.
func summedSteps[V comparable](g graph.View, p *core.Program[V], nodes int, rr bool) ([]step, error) {
	res, err := cluster.Execute(g, p, cluster.Options{Nodes: nodes, Threads: 1, RR: rr})
	if err != nil {
		return nil, err
	}
	steps := make([]step, len(res.Result.Metrics.Iters))
	for rank, w := range res.PerWorker {
		if len(w.Iters) != len(steps) {
			return nil, fmt.Errorf("rank %d ran %d supersteps, rank 0 ran %d", rank, len(w.Iters), len(steps))
		}
		for i, s := range w.Iters {
			steps[i].mode = s.Mode
			steps[i].comps += s.Computations
		}
	}
	return steps, nil
}

func rrOffIters[V comparable](g graph.View, p *core.Program[V]) ([]metrics.IterStat, error) {
	res, err := cluster.Execute(g, p, cluster.Options{Nodes: 1, Threads: 2, Stealing: true})
	if err != nil {
		return nil, err
	}
	return res.Result.Metrics.Iters, nil
}

// BenchmarkMinMaxPull runs SSSP with every superstep forced into pull mode
// and reports the rate at which pull rounds scan in-edges: a round scans
// the whole in-list of every owned vertex, whatever the frontier, so
// Medges/s is the cost of the all-in-edge scan itself.
func BenchmarkMinMaxPull(b *testing.B) {
	benchMinMax(b, 1<<40, func(b *testing.B, g *graph.Graph, res *core.Result[float64]) {
		// Every run scans the same edges: all of them, each pull round.
		scanned := int64(len(res.Metrics.Iters)) * g.NumEdges()
		b.ReportMetric(float64(scanned)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
	})
}

// BenchmarkMinMaxPush runs SSSP with every superstep forced into push mode
// (push whenever the frontier is non-empty) and reports the time per
// relaxed out-edge: a push round walks the out-lists of the frontier only,
// one computation per edge.
func BenchmarkMinMaxPush(b *testing.B) {
	benchMinMax(b, 1, func(b *testing.B, _ *graph.Graph, res *core.Result[float64]) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Metrics.Computations()*int64(b.N)), "ns/edge")
	})
}

// benchMinMax times one-rank SSSP runs under the given push/pull switch, on
// 1 and 2 threads, and hands each sub-benchmark its last result to report.
func benchMinMax(b *testing.B, denseDivisor int64, report func(*testing.B, *graph.Graph, *core.Result[float64])) {
	g := gen.RMAT(1<<14, 1<<18, gen.DefaultRMAT, 16, 5)
	part, err := partition.NewChunked(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := apps.SSSP(0)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			ts, err := comm.NewLocalGroup(1)
			if err != nil {
				b.Fatal(err)
			}
			defer ts[0].Close()
			sched := ws.New(threads, true)
			defer sched.Close()
			eng, err := core.New[float64](core.Config{Graph: g, Comm: comm.NewComm(ts[0]), Part: part,
				Sched: sched, DenseDivisor: denseDivisor})
			if err != nil {
				b.Fatal(err)
			}
			var res *core.Result[float64]
			for b.Loop() {
				if res, err = eng.Run(p); err != nil {
					b.Fatal(err)
				}
			}
			report(b, g, res)
		})
	}
}
