package apps

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/store"
)

// runDigest folds a run's values (as float64 bit patterns) and its
// per-superstep work counts into two FNV-64a checksums.
func runDigest(values []float64, iters []metrics.IterStat) (vals, counts uint64) {
	var b [8]byte
	hv, hc := fnv.New64a(), fnv.New64a()
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		hv.Write(b[:])
	}
	for _, it := range iters {
		for _, x := range []int64{int64(it.Iter), int64(it.Mode), it.Computations, it.Updates, it.Suppressed, it.CatchUps} {
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
// 133668 (was 0x9fc8be2661975ab5). PR's pins are PR 14's.
func TestPinnedChecksums(t *testing.T) {
	g := gen.RMAT(4096, 32768, gen.DefaultRMAT, 16, 7)
	pinned := []struct {
		key          string
		vals, counts uint64
		supersteps   int
	}{
		{"pr", 0x4ee4783e3645ceb1, 0xb9f824b48a015e1, 12},
		{"sssp", 0x79fa0dd10d767a1a, 0x4cae9d57b241a218, 10},
		{"cc", 0x2ce44c811d587e, 0x3e4e037d4f1f1e81, 7},
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

// lifted returns a copy of p without its span hooks, so the engine runs its
// per-edge hooks through the lifted path.
func lifted[V comparable](p *core.Program[V]) *core.Program[V] {
	q := *p
	q.RelaxSpan, q.GatherSpan = nil, nil
	return &q
}

// liftedCC is ccRunner/ccU32Runner with the span hooks stripped.
type liftedCC[V comparable] struct {
	build func(graph.View) *core.Program[V]
}

func (liftedCC[V]) ProgramName() string { return "CC" }

func (r liftedCC[V]) Execute(g graph.View, opt cluster.Options) (*Outcome, error) {
	return AsRunnable(lifted(r.build(g))).Execute(g, opt)
}

func (r liftedCC[V]) ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error) {
	return AsRunnable(lifted(r.build(g))).ExecuteIn(s, g, opt)
}

// stripProg puts p on the lifted per-edge path and reports whether it
// carried a span hook to strip.
func stripProg[V comparable](p *core.Program[V]) (Runnable, bool) {
	return AsRunnable(lifted(p)), p.RelaxSpan != nil || p.GatherSpan != nil
}

// withoutSpans rebuilds a registry runnable on the lifted per-edge path and
// reports whether the original carries a span hook at all.
func withoutSpans(t *testing.T, r Runnable, g graph.View) (Runnable, bool) {
	t.Helper()
	switch x := r.(type) {
	case progRunner[float64]:
		return stripProg(x.p)
	case progRunner[float32]:
		return stripProg(x.p)
	case progRunner[uint32]:
		return stripProg(x.p)
	case progRunner[core.DistParent]:
		return stripProg(x.p)
	case ccRunner[float64]:
		return liftedCC[float64]{CCIn[float64]}, CCIn[float64](g).RelaxSpan != nil
	case ccRunner[float32]:
		return liftedCC[float32]{CCIn[float32]}, CCIn[float32](g).RelaxSpan != nil
	case ccU32Runner:
		return liftedCC[uint32]{CCU32}, CCU32(g).RelaxSpan != nil
	}
	t.Fatalf("unknown runnable type %T: teach withoutSpans to strip it", r)
	return nil, false
}

// TestSpanHooksMatchLifted is the differential oracle of the span fast
// path: every registered (application, domain), at 1, 2 and 4 threads, over
// the heap graph and the mmap'd .slfc, with RR on and off, gives
// bit-identical values and identical per-superstep
// Computations/Updates/Suppressed/CatchUps whether the kernels call the
// program's span hook or its per-edge hooks lifted. Both forms fold every
// in-edge of a computing vertex; what a pull round counts is the kernel's
// business (frontier bits over the same list), not the hook's. Every min/max
// entry, lifted-only ones included, must also give RR-on values (and dist32
// parents) bit-identical to RR-off under the graph's shared guidance.
func TestSpanHooksMatchLifted(t *testing.T) {
	heap := gen.RMAT(1500, 12000, gen.DefaultRMAT, 8, 31)
	open := func(g *graph.Graph, name string) graph.View {
		path := filepath.Join(t.TempDir(), name)
		if err := store.Write(path, g); err != nil {
			t.Fatal(err)
		}
		sg, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sg.Close() })
		return sg
	}
	sym := Symmetrize(heap)
	views := map[string][2]graph.View{
		"heap": {heap, sym},
		"slfc": {open(heap, "g.slfc"), open(sym, "sym.slfc")},
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
			slow, hasSpan := withoutSpans(t, fast, g)
			if name := entry.Key + "/" + entry.Domain; hasSpan == liftedOnly[name] {
				t.Fatalf("%s: span hook present = %v, expected %v", name, hasSpan, !hasSpan)
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
					if !hasSpan {
						continue // already on the lifted path: nothing to compare
					}
					b, err := slow.Execute(g, opt)
					if err != nil {
						t.Fatal(err)
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
