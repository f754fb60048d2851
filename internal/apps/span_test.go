package apps

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/store"
)

// runDigest folds a run's values (as float64 bit patterns) and its
// per-superstep work counts into two FNV-64a checksums. The last count slot
// held a retired start-late counter and is always 0, so the pins taken
// while it existed still compare.
func runDigest(values []float64, iters []metrics.IterStat) (vals, counts uint64) {
	var b [8]byte
	hv, hc := fnv.New64a(), fnv.New64a()
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		hv.Write(b[:])
	}
	for _, it := range iters {
		for _, x := range []int64{int64(it.Iter), int64(it.Mode), it.Computations, it.Updates, it.Suppressed, 0} {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			hc.Write(b[:])
		}
	}
	return hv.Sum64(), hc.Sum64()
}

// TestPinnedChecksums pins PR, SSSP and CC on a fixed seeded graph to the
// values and per-superstep counts the per-edge kernels of PR 14 produced:
// the span kernels must reproduce them bit for bit on every thread count.
// SSSP's count pin was re-captured in PR 18 (values unchanged): the scalar
// "start late" rule repays the first pull's 2552 suppressed vertices with
// one closing pull at max(LastIter) = 5 where the per-vertex debt bits
// spread it over rulers 2-5 — 8 supersteps and 71818 counted computations
// for 10 and 62265 (was 0x21706043d373c3c3, 10). SSSP's and CC's count
// pins were re-captured again, values unchanged, when min/max runs moved
// from guidance rooted at their own roots to the graph's shared
// default-root guidance (rrg.Shared): SSSP 8 → 10 supersteps, 71818 → 62960
// computations (was 0x6ebd7e2e9f0f7f15); CC 5 → 7 supersteps, 140673 →
// 133668 (was 0x9fc8be2661975ab5). They were re-captured once more, values
// unchanged, when the start-late rule was deleted: a min/max run with RR on
// now runs exactly the RR-off supersteps, and both pins are the RR-off
// run's — SSSP 10 → 7 supersteps, 62960 → 54197 computations (was
// 0x4cae9d57b241a218); CC 7 → 4, 133668 → 140673 (was
// 0x3e4e037d4f1f1e81). PageRank's pins have never changed.
func TestPinnedChecksums(t *testing.T) {
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, 16, 7)
	pinned := []struct {
		key          string
		vals, counts uint64
		supersteps   int
	}{
		{"pr", 0x4ee4783e3645ceb1, 0xb9f824b48a015e1, 12},
		{"sssp", 0x79fa0dd10d767a1a, 0x1bc9b63afa7af609, 7},
		{"cc", 0x2ce44c811d587e, 0xb560f048c59d74ad, 4},
	}
	for _, pin := range pinned {
		entry, ok := LookupRunnable(pin.key, "f64")
		if !ok {
			t.Fatalf("%s/f64 not registered", pin.key)
		}
		var runG graph.View = g
		if entry.NeedsSym {
			runG = Symmetrize(g)
		}
		for _, threads := range []int{1, 2, 4} {
			out, err := entry.Build(1, 12).Execute(runG, cluster.Options{Nodes: 1, Threads: threads, Stealing: true, RR: true})
			if err != nil {
				t.Fatalf("%s threads=%d: %v", pin.key, threads, err)
			}
			vals, counts := runDigest(out.Values, out.Run.Iters)
			if vals != pin.vals || counts != pin.counts || out.Iterations != pin.supersteps {
				t.Errorf("%s threads=%d: values %#x counts %#x supersteps %d, pinned %#x %#x %d",
					pin.key, threads, vals, counts, out.Iterations, pin.vals, pin.counts, pin.supersteps)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// edit names the changes variant makes to a copy of a registry program:
// noSpans strips its span hooks, so the engine runs its per-edge hooks
// through the lifted path; weighted clears Unweighted, so the kernels hand
// every hook the graph's weights.
type edit struct{ noSpans, weighted bool }

// traits is what the original program declares.
type traits struct{ hasSpan, unweighted bool }

func edited[V comparable](p *core.Program[V], ed edit) (*core.Program[V], traits) {
	q := *p
	if ed.noSpans {
		q.RelaxSpan, q.GatherSpan = nil, nil
	}
	if ed.weighted {
		q.Unweighted = false
	}
	return &q, traits{p.RelaxSpan != nil || p.GatherSpan != nil, p.Unweighted}
}

func editedRunner[V comparable](p *core.Program[V], ed edit) (Runnable, traits) {
	q, tr := edited(p, ed)
	return AsRunnable(q), tr
}

// editedCC is ccRunner/ccU32Runner with its program edited.
type editedCC[V comparable] struct {
	build func(graph.View) *core.Program[V]
	ed    edit
}

func (editedCC[V]) ProgramName() string { return "CC" }

func (r editedCC[V]) Execute(g graph.View, opt cluster.Options) (*Outcome, error) {
	q, _ := edited(r.build(g), r.ed)
	return AsRunnable(q).Execute(g, opt)
}

func (r editedCC[V]) ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error) {
	q, _ := edited(r.build(g), r.ed)
	return AsRunnable(q).ExecuteIn(s, g, opt)
}

func editedCCRunner[V comparable](build func(graph.View) *core.Program[V], g graph.View, ed edit) (Runnable, traits) {
	_, tr := edited(build(g), ed)
	return editedCC[V]{build, ed}, tr
}

// variant rebuilds a registry runnable with its program edited as ed says,
// and reports what the original declares.
func variant(t *testing.T, r Runnable, g graph.View, ed edit) (Runnable, traits) {
	t.Helper()
	switch x := r.(type) {
	case progRunner[float64]:
		return editedRunner(x.p, ed)
	case progRunner[float32]:
		return editedRunner(x.p, ed)
	case progRunner[uint32]:
		return editedRunner(x.p, ed)
	case progRunner[core.DistParent]:
		return editedRunner(x.p, ed)
	case ccRunner[float64]:
		return editedCCRunner(CCIn[float64], g, ed)
	case ccRunner[float32]:
		return editedCCRunner(CCIn[float32], g, ed)
	case ccU32Runner:
		return editedCCRunner(CCU32, g, ed)
	}
	t.Fatalf("unknown runnable type %T: teach variant to edit it", r)
	return nil, traits{}
}

// weightReads wraps a View and counts the {In,Out}Weights calls made on it
// and on every cursor it hands out. It forwards the graph's guidance slot,
// so runs over it share guidance as runs over the graph do.
type weightReads struct {
	graph.View
	n *atomic.Int64
}

func countWeightReads(g graph.View) weightReads { return weightReads{g, new(atomic.Int64)} }

func (w weightReads) OutWeights(v graph.VertexID) []float32 {
	w.n.Add(1)
	return w.View.OutWeights(v)
}

func (w weightReads) InWeights(v graph.VertexID) []float32 {
	w.n.Add(1)
	return w.View.InWeights(v)
}

func (w weightReads) Cursor() graph.Cursor { return weightCursor{w.View.Cursor(), w.n} }

func (w weightReads) Derived() *graph.Derived {
	return w.View.(interface{ Derived() *graph.Derived }).Derived()
}

type weightCursor struct {
	graph.Cursor
	n *atomic.Int64
}

func (c weightCursor) OutWeights(v graph.VertexID) []float32 {
	c.n.Add(1)
	return c.Cursor.OutWeights(v)
}

func (c weightCursor) InWeights(v graph.VertexID) []float32 {
	c.n.Add(1)
	return c.Cursor.InWeights(v)
}

// weightsRead runs r over g and returns the outcome and how many weight
// reads the run made.
func weightsRead(t *testing.T, r Runnable, g weightReads, opt cluster.Options) (*Outcome, int64) {
	t.Helper()
	before := g.n.Load()
	out, err := r.Execute(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out, g.n.Load() - before
}

// writeSLFC writes g as a .slfc file in a test directory and returns its path.
func writeSLFC(t *testing.T, g *graph.Graph, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := store.Write(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSLFC opens a .slfc file under a memory budget (0 maps it) for the
// rest of the test.
func openSLFC(t *testing.T, path string, budget int64) graph.View {
	t.Helper()
	sg, err := store.OpenBudget(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sg.Close() })
	return sg
}

// TestSpanHooksMatchLifted is the differential oracle of the span fast
// path: every registered (application, domain), at 1, 2 and 4 threads, over
// the heap graph and the mmap'd .slfc, with RR on and off, gives
// bit-identical values and identical per-superstep
// Computations/Updates/Suppressed whether the kernels call the program's
// span hook or its per-edge hooks lifted. Both forms fold every in-edge of
// a computing vertex; what a pull round counts is the kernel's business
// (the frontier's out-degrees), not the hook's. The lifted
// path of an Unweighted program is handed ws == nil and must read no weight:
// indexing ws would panic. Every min/max entry, lifted-only ones included,
// must also give RR-on values (and dist32 parents) bit-identical to RR-off:
// RR is finish early only, which a min/max run never applies.
func TestSpanHooksMatchLifted(t *testing.T) {
	heap := gen.RMAT(1500, 12000, gen.DefaultRMAT, 8, 31)
	sym := Symmetrize(heap)
	views := map[string][2]weightReads{
		"heap": {countWeightReads(heap), countWeightReads(sym)},
		"slfc": {
			countWeightReads(openSLFC(t, writeSLFC(t, heap, "g.slfc"), 0)),
			countWeightReads(openSLFC(t, writeSLFC(t, sym, "sym.slfc"), 0)),
		},
	}
	// The two programs that stay on the lifted path: BP's tanh and the
	// composite dist32 relaxation dwarf the per-edge call.
	liftedOnly := map[string]bool{"bp/f64": true, "sssp/dist32": true}
	for _, entry := range Runnables() {
		for mode, pair := range views {
			g := pair[0]
			if entry.NeedsSym {
				g = pair[1]
			}
			fast := entry.Build(3, 8)
			slow, tr := variant(t, fast, g, edit{noSpans: true})
			if name := entry.Key + "/" + entry.Domain; tr.hasSpan == liftedOnly[name] {
				t.Fatalf("%s: span hook present = %v, expected %v", name, tr.hasSpan, !tr.hasSpan)
			}
			for _, threads := range []int{1, 2, 4} {
				var off *Outcome
				for _, rr := range []bool{false, true} {
					opt := cluster.Options{Nodes: 1, Threads: threads, Stealing: true, RR: rr}
					a, err := fast.Execute(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !rr {
						off = a
					} else if entry.Agg == core.MinMax && (!sameBits(a.Values, off.Values) || !slices.Equal(a.Parents, off.Parents)) {
						t.Errorf("%s/%s %s threads=%d: RR-on values or parents differ from RR-off", entry.Key, entry.Domain, mode, threads)
					}
					if !tr.hasSpan {
						continue // already on the lifted path: nothing to compare
					}
					b, reads := weightsRead(t, slow, g, opt)
					if tr.unweighted && reads != 0 {
						t.Errorf("%s/%s %s threads=%d rr=%v: the lifted path of an Unweighted program read weights %d times",
							entry.Key, entry.Domain, mode, threads, rr, reads)
					}
					av, ac := runDigest(a.Values, a.Run.Iters)
					bv, bc := runDigest(b.Values, b.Run.Iters)
					if av != bv || ac != bc || a.Iterations != b.Iterations {
						t.Errorf("%s/%s %s threads=%d rr=%v: span hook and lifted per-edge path diverge (values %#x vs %#x, counts %#x vs %#x, supersteps %d vs %d)",
							entry.Key, entry.Domain, mode, threads, rr, av, bv, ac, bc, a.Iterations, b.Iterations)
					}
				}
			}
		}
	}
}

// TestUnweightedReadsNoWeights: a program that declares Unweighted asks the
// graph for no weight at all — over the heap CSR, the mmap'd .slfc and the
// out-of-core reader, in pull and in push supersteps — and computes exactly
// what it computes with the declaration cleared, values and per-superstep
// counts. The registry declares it for every program whose hooks ignore w,
// and only for those.
func TestUnweightedReadsNoWeights(t *testing.T) {
	heap := gen.RMAT(1500, 12000, gen.DefaultRMAT, 8, 31)
	sym := Symmetrize(heap)
	gPath, symPath := writeSLFC(t, heap, "g.slfc"), writeSLFC(t, sym, "sym.slfc")
	views := map[string][2]weightReads{"heap": {countWeightReads(heap), countWeightReads(sym)}}
	for mode, budget := range map[string]int64{"mmap": 0, "ooc": 1} {
		views[mode] = [2]weightReads{
			countWeightReads(openSLFC(t, gPath, budget)),
			countWeightReads(openSLFC(t, symPath, budget)),
		}
	}
	// Everything else reads weights: SSSP in every domain, WP, SpMV and BP.
	unweighted := map[string]bool{
		"pr/f64": true, "pr/f32": true, "tr/f64": true, "tr/f32": true,
		"numpaths/f64": true, "numpaths/f32": true, "numpaths/u32": true, "heat/f64": true,
		"bfs/f64": true, "bfs/f32": true, "bfs/u32": true, "cc/f64": true, "cc/f32": true, "cc/u32": true,
	}
	opts := map[string]cluster.Options{
		"rr":        {Nodes: 1, Threads: 2, Stealing: true, RR: true},
		"push-only": {Nodes: 1, Threads: 2, Stealing: true, DenseDivisor: 1},
	}
	for _, entry := range Runnables() {
		name := entry.Key + "/" + entry.Domain
		for mode, pair := range views {
			g := pair[0]
			if entry.NeedsSym {
				g = pair[1]
			}
			r := entry.Build(3, 8)
			cleared, tr := variant(t, r, g, edit{weighted: true})
			if tr.unweighted != unweighted[name] {
				t.Fatalf("%s: Unweighted = %v, expected %v", name, tr.unweighted, !tr.unweighted)
			}
			for oname, opt := range opts {
				a, reads := weightsRead(t, r, g, opt)
				if tr.unweighted && reads != 0 {
					t.Errorf("%s %s %s: an Unweighted program read weights %d times", name, mode, oname, reads)
				}
				if !tr.unweighted && reads == 0 {
					t.Errorf("%s %s %s: a weighted program read no weight", name, mode, oname)
				}
				if !tr.unweighted {
					continue
				}
				b, _ := weightsRead(t, cleared, g, opt)
				av, ac := runDigest(a.Values, a.Run.Iters)
				bv, bc := runDigest(b.Values, b.Run.Iters)
				if av != bv || ac != bc || a.Iterations != b.Iterations || !slices.Equal(a.Parents, b.Parents) {
					t.Errorf("%s %s %s: Unweighted and weighted runs diverge (values %#x vs %#x, counts %#x vs %#x)",
						name, mode, oname, av, bv, ac, bc)
				}
			}
		}
	}
}
