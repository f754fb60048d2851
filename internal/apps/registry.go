package apps

import (
	"fmt"
	"sort"
	"time"

	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// Entry describes one Table 1 application.
type Entry struct {
	Name        string
	Agg         core.AggKind
	Implemented bool
	// Evaluated marks the five applications of the paper's §4 experiments.
	Evaluated bool
}

// Registry reproduces Table 1: every graph analytical application the paper
// lists, its aggregation class, and whether this repository implements it.
var Registry = []Entry{
	{Name: "PageRank", Agg: core.Arith, Implemented: true, Evaluated: true},
	{Name: "NumPaths", Agg: core.Arith, Implemented: true},
	{Name: "SpMV", Agg: core.Arith, Implemented: true},
	{Name: "TriangleCounting", Agg: core.Arith, Implemented: true},
	{Name: "BeliefPropagation", Agg: core.Arith, Implemented: true},
	{Name: "HeatSimulation", Agg: core.Arith, Implemented: true},
	{Name: "TunkRank", Agg: core.Arith, Implemented: true, Evaluated: true},
	{Name: "SingleSourceSP", Agg: core.MinMax, Implemented: true, Evaluated: true},
	{Name: "MinimalSpanningTree", Agg: core.MinMax, Implemented: true},
	{Name: "ConnectedComponents", Agg: core.MinMax, Implemented: true, Evaluated: true},
	{Name: "WidestPath", Agg: core.MinMax, Implemented: true, Evaluated: true},
	{Name: "ApproximateDiameter", Agg: core.MinMax, Implemented: true},
	{Name: "Clique", Agg: core.MinMax, Implemented: true},
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Outcome is the domain-erased result of a registry execution: values are
// projected to float64 through the program's domain, so callers (the CLI,
// experiment tables) handle every domain uniformly.
type Outcome struct {
	// Values are the domain-projected result values (Domain.Float64).
	Values []float64
	// Parents is the per-vertex predecessor tree when the program's domain
	// carries one (dist32; core.NoParent marks roots and unreached
	// vertices), nil otherwise. The float64 projection drops the parent
	// half of the composite value, so it is surfaced here for route
	// queries.
	Parents []uint32
	// Iterations is the superstep count.
	Iterations int
	// Run is worker 0's metrics; PerWorker holds every worker's.
	Run       *metrics.Run
	PerWorker []*metrics.Run
	// Elapsed / Preprocess / Comm mirror cluster.RunResult.
	Elapsed    time.Duration
	Preprocess time.Duration
	Comm       comm.Stats
}

// Runnable is a domain-erased executable program: the typed Program[V] and
// its cluster plumbing hidden behind one interface so heterogeneous
// domains can share a registry.
type Runnable interface {
	// ProgramName is the underlying program's name.
	ProgramName() string
	// Execute runs the program on an in-process cluster.
	Execute(g graph.View, opt cluster.Options) (*Outcome, error)
	// ExecuteIn runs the program cold on a resident session and returns
	// the outcome plus resumable warm-start state.
	ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error)
}

// AsRunnable wraps a typed program as a Runnable.
func AsRunnable[V comparable](p *core.Program[V]) Runnable { return progRunner[V]{p} }

type progRunner[V comparable] struct{ p *core.Program[V] }

func (r progRunner[V]) ProgramName() string { return r.p.Name }

func (r progRunner[V]) Execute(g graph.View, opt cluster.Options) (*Outcome, error) {
	res, err := cluster.Execute(g, r.p, opt)
	if err != nil {
		return nil, err
	}
	return outcomeFrom(res), nil
}

// parentsOf extracts the predecessor tree from composite dist32 values
// (nil for every other property type).
func parentsOf[V comparable](values []V) []uint32 {
	dp, ok := any(values).([]core.DistParent)
	if !ok {
		return nil
	}
	parents := make([]uint32, len(dp))
	for i, v := range dp {
		parents[i] = v.Parent
	}
	return parents
}

// RunnableApp is one registered (application key, value domain) pairing the
// CLI can execute.
type RunnableApp struct {
	// Key is the flag spelling ("sssp", "pr", ...).
	Key string
	// Domain names the value domain ("f64", "f32", "u32", "dist32").
	Domain string
	// Agg is the aggregation class (for help listings).
	Agg core.AggKind
	// NeedsSym runs the program on the symmetrised graph (CC).
	NeedsSym bool
	// Build constructs the program for a root/iteration configuration.
	Build func(root graph.VertexID, iters int) Runnable
}

// runnables is the (key, domain) registry; registration order is preserved
// for stable help listings.
var runnables []RunnableApp

// Register adds one (application, domain) pairing to the registry. A
// duplicate (Key, Domain) pair is a programming error — two packages
// claiming the same spelling would silently shadow each other — so it is
// reported instead of overwritten.
func Register(a RunnableApp) error {
	if a.Key == "" || a.Domain == "" || a.Build == nil {
		return fmt.Errorf("apps: Register needs Key, Domain and Build (got key=%q domain=%q)", a.Key, a.Domain)
	}
	if _, ok := LookupRunnable(a.Key, a.Domain); ok {
		return fmt.Errorf("apps: application %q is already registered for domain %q; duplicate registrations are rejected rather than silently overwritten", a.Key, a.Domain)
	}
	runnables = append(runnables, a)
	return nil
}

// MustRegister is Register for init-time wiring.
func MustRegister(a RunnableApp) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// LookupRunnable finds the (key, domain) pairing.
func LookupRunnable(key, domain string) (RunnableApp, bool) {
	for _, a := range runnables {
		if a.Key == key && a.Domain == domain {
			return a, true
		}
	}
	return RunnableApp{}, false
}

// Runnables lists every registered pairing sorted by key then domain.
func Runnables() []RunnableApp {
	out := append([]RunnableApp(nil), runnables...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// RunnableDomains lists the domains registered for key, sorted.
func RunnableDomains(key string) []string {
	var out []string
	for _, a := range runnables {
		if a.Key == key {
			out = append(out, a.Domain)
		}
	}
	sort.Strings(out)
	return out
}

func init() {
	reg := func(key, domain string, agg core.AggKind, sym bool, build func(root graph.VertexID, iters int) Runnable) {
		MustRegister(RunnableApp{Key: key, Domain: domain, Agg: agg, NeedsSym: sym, Build: build})
	}
	// The 8 Program-shaped applications, each in its float domains; the
	// label-style ones additionally in exact integers.
	reg("sssp", "f64", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(SSSP(r)) })
	reg("sssp", "f32", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(SSSPF32(r)) })
	reg("sssp", "dist32", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(SSSPTree(r)) })
	reg("bfs", "f64", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(BFS(r)) })
	reg("bfs", "f32", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(BFSF32(r)) })
	reg("bfs", "u32", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(BFSU32(r)) })
	reg("cc", "f64", core.MinMax, true, func(_ graph.VertexID, _ int) Runnable { return ccRunner[float64]{} })
	reg("cc", "f32", core.MinMax, true, func(_ graph.VertexID, _ int) Runnable { return ccRunner[float32]{} })
	reg("cc", "u32", core.MinMax, true, func(_ graph.VertexID, _ int) Runnable { return ccU32Runner{} })
	reg("wp", "f64", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(WP(r)) })
	reg("wp", "f32", core.MinMax, false, func(r graph.VertexID, _ int) Runnable { return AsRunnable(WPF32(r)) })
	reg("pr", "f64", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(PageRank(it)) })
	reg("pr", "f32", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(PageRankF32(it)) })
	reg("tr", "f64", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(TunkRank(it)) })
	reg("tr", "f32", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(TunkRankF32(it)) })
	reg("spmv", "f64", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(SpMV(it)) })
	reg("spmv", "f32", core.Arith, false, func(_ graph.VertexID, it int) Runnable { return AsRunnable(SpMVF32(it)) })
	reg("numpaths", "f64", core.Arith, false, func(r graph.VertexID, it int) Runnable { return AsRunnable(NumPaths(r, it)) })
	reg("numpaths", "f32", core.Arith, false, func(r graph.VertexID, it int) Runnable { return AsRunnable(NumPathsF32(r, it)) })
	reg("numpaths", "u32", core.Arith, false, func(r graph.VertexID, it int) Runnable { return AsRunnable(NumPathsU32(r, it)) })
	reg("heat", "f64", core.Arith, false, func(r graph.VertexID, it int) Runnable {
		return AsRunnable(HeatSimulation([]graph.VertexID{r}, it))
	})
	reg("bp", "f64", core.Arith, false, func(r graph.VertexID, it int) Runnable {
		// Demo priors: the root holds positive evidence.
		prior := func(_ graph.View, v graph.VertexID) float64 {
			if v == r {
				return 2
			}
			return 0
		}
		p := BeliefPropagation(prior, BeliefCoupling, it)
		p.Roots = []graph.VertexID{r}
		return AsRunnable(p)
	})
}

// ccRunner defers CC's program construction to execution time: the program
// needs the (symmetrised) graph for its roots and labels.
type ccRunner[V core.Float] struct{}

func (ccRunner[V]) ProgramName() string { return "CC" }

func (ccRunner[V]) Execute(g graph.View, opt cluster.Options) (*Outcome, error) {
	return AsRunnable(CCIn[V](g)).Execute(g, opt)
}

type ccU32Runner struct{}

func (ccU32Runner) ProgramName() string { return "CC" }

func (ccU32Runner) Execute(g graph.View, opt cluster.Options) (*Outcome, error) {
	return AsRunnable(CCU32(g)).Execute(g, opt)
}
