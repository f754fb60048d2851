// Package bench regenerates every table and figure of the paper's
// evaluation (§4). Each experiment is a function writing an aligned text
// table to the configured writer; cmd/slfe-bench exposes them behind
// -exp flags and bench_test.go wraps them in testing.B benchmarks.
//
// The seven real-world graphs are replaced by the deterministic R-MAT
// proxies of internal/gen, matched in average degree; -scale controls the
// down-scale factor (1000 runs in seconds).
package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/rrg"
)

// Config configures an experiment run.
type Config struct {
	// Scale is the dataset down-scale factor (default 1000).
	Scale int
	// Nodes is the simulated cluster size (default 8).
	Nodes int
	// Threads per node (default 1; the evaluation host is single-core).
	Threads int
	// PRIters bounds PageRank/TunkRank iterations (default 30).
	PRIters int
	// Out receives the table (required).
	Out io.Writer

	cache map[string]*graph.Graph
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.PRIters <= 0 {
		c.PRIters = 30
	}
	if c.cache == nil {
		c.cache = make(map[string]*graph.Graph)
	}
}

// Graph materialises (and caches) a dataset proxy. The suffix ":sym"
// returns the symmetrised variant used by CC.
func (c *Config) Graph(name string) (*graph.Graph, error) {
	c.defaults()
	if g, ok := c.cache[name]; ok {
		return g, nil
	}
	base := name
	sym := false
	if len(name) > 4 && name[len(name)-4:] == ":sym" {
		base = name[:len(name)-4]
		sym = true
	}
	d, err := gen.ByName(base)
	if err != nil {
		return nil, err
	}
	g, ok := c.cache[base]
	if !ok {
		g = d.Proxy(c.Scale)
		c.cache[base] = g
	}
	if sym {
		g = apps.Symmetrize(g)
		c.cache[name] = g
	}
	return g, nil
}

// GraphNames is the paper's dataset order for Table 5 (PK first) —
// Figure 5 and Table 2 use OK-first order.
var GraphNames = []string{"PK", "OK", "LJ", "WK", "DI", "ST", "FS"}

// AppNames is the paper's application order.
var AppNames = []string{"SSSP", "CC", "WP", "PR", "TR"}

// appIsArith reports whether per-iteration time is reported (PR/TR rows of
// Table 5).
func appIsArith(app string) bool { return app == "PR" || app == "TR" }

// Program builds the named application program against g; CC callers must
// pass the symmetrised graph.
func (c *Config) Program(app string, g *graph.Graph) (*core.Program[float64], error) {
	c.defaults()
	switch app {
	case "SSSP":
		return apps.SSSP(0), nil
	case "BFS":
		return apps.BFS(0), nil
	case "CC":
		return apps.CC(g), nil
	case "WP":
		return apps.WP(0), nil
	case "PR":
		return apps.PageRank(c.PRIters), nil
	case "TR":
		return apps.TunkRank(c.PRIters), nil
	case "SpMV":
		return apps.SpMV(c.PRIters), nil
	case "NumPaths":
		return apps.NumPaths(0, c.PRIters), nil
	}
	return nil, fmt.Errorf("bench: unknown app %q", app)
}

// graphFor returns the right graph variant for the app (CC needs the
// symmetric one).
func (c *Config) graphFor(app, name string) (*graph.Graph, error) {
	if app == "CC" {
		return c.Graph(name + ":sym")
	}
	return c.Graph(name)
}

// RunSLFE executes one app on one dataset with the SLFE engine.
func (c *Config) RunSLFE(app, name string, nodes int, rr bool, opts ...func(*cluster.Options)) (*cluster.RunResult[float64], error) {
	c.defaults()
	g, err := c.graphFor(app, name)
	if err != nil {
		return nil, err
	}
	p, err := c.Program(app, g)
	if err != nil {
		return nil, err
	}
	opt := cluster.Options{Nodes: nodes, Threads: c.Threads, RR: rr}
	for _, fn := range opts {
		fn(&opt)
	}
	return cluster.Execute(g, p, opt)
}

// medianPair runs app on graph name with RR off and on, alternately, three
// times each, and returns each side's run of median elapsed time: one
// timing per side of a comparison shows only run-to-run noise.
func (c *Config) medianPair(app, name string) (base, rr *cluster.RunResult[float64], err error) {
	var runs [2][3]*cluster.RunResult[float64]
	for j := range 3 {
		for i := range runs {
			if runs[i][j], err = c.RunSLFE(app, name, c.Nodes, i == 1); err != nil {
				return nil, nil, err
			}
		}
	}
	for i := range runs {
		slices.SortFunc(runs[i][:], func(a, b *cluster.RunResult[float64]) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
	}
	return runs[0][1], runs[1][1], nil
}

// perIterSeconds normalises arith app runtimes the way Table 5 does
// ("per-iteration runtime is reported for PR and TR").
func perIterSeconds(app string, elapsed time.Duration, iters int) float64 {
	s := elapsed.Seconds()
	if appIsArith(app) && iters > 0 {
		return s / float64(iters)
	}
	return s
}

// geomean returns the geometric mean of xs (1 if empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	n := float64(len(xs))
	return mathPow(prod, 1/n)
}

// reachableCount returns the number of vertices reached by the guidance
// roots (used to normalise updates/vertex like Table 2 does).
func reachableCount(g *graph.Graph, roots []graph.VertexID) int64 {
	gd := rrg.Generate(g, roots, nil)
	var n int64
	for v := 0; v < g.NumVertices(); v++ {
		if gd.Reached(graph.VertexID(v)) {
			n++
		}
	}
	return n
}

// mergeComputationsPerIter sums computation counts per superstep across
// workers.
func mergeComputationsPerIter(runs []*metrics.Run) []int64 {
	merged := metrics.Merge(runs)
	out := make([]int64, len(merged.Iters))
	for i, s := range merged.Iters {
		out[i] = s.Computations
	}
	return out
}
