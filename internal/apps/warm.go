package apps

import (
	"fmt"
	"math"

	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// Resume is the opaque warm-start state of a prior execution: the typed
// prior values live behind a closure so heterogeneous domains share one
// service-side type, and no lossy float64 projection sits on the resume
// path (a dist32 value would not survive one). It also keeps the prior
// Outcome (the one its caller already holds), whose projections a warm
// result copies instead of projecting every vertex again.
type Resume struct {
	warm func(s *cluster.Session, g *graph.Graph, added []graph.Edge, opt cluster.Options) (*Outcome, *Resume, error)
}

// ExecuteWarm re-executes the program on g (the prior graph plus the added
// edges, possibly with appended vertices) starting from the prior result:
//
//   - Min/max programs run a monotone re-relaxation wave seeded at the
//     added edges' sources with prior values as initial state — edge
//     insertions can only improve values, so the wave converges to the
//     same fixed point (bit-identical values) as a cold run on g, usually
//     in a handful of supersteps. Its Outcome re-projects only the
//     vertices the wave changed or appended.
//   - Arith programs (fixed-iteration-count semantics: a warm start would
//     change the answer) re-run cold, which still profits from the
//     session's resident pools and, unless the program declares Roots,
//     from the guidance rrg.Carry moved into g's shared slot.
func (r *Resume) ExecuteWarm(s *cluster.Session, g *graph.Graph, added []graph.Edge, opt cluster.Options) (*Outcome, *Resume, error) {
	return r.warm(s, g, added, opt)
}

// outcomeFrom converts a cluster result into the domain-erased Outcome.
func outcomeFrom[V comparable](res *cluster.RunResult[V]) *Outcome {
	return outcomeWith(res, res.Result.Float64s(), parentsOf(res.Result.Values))
}

// outcomeWith is outcomeFrom with the value projections already made.
func outcomeWith[V comparable](res *cluster.RunResult[V], values []float64, parents []uint32) *Outcome {
	return &Outcome{
		Values:     values,
		Parents:    parents,
		Iterations: res.Result.Iterations,
		Run:        res.Result.Metrics,
		PerWorker:  res.PerWorker,
		Elapsed:    res.Elapsed,
		Preprocess: res.PreprocessTime,
		Comm:       res.Comm,
	}
}

// domainOf resolves a program's effective value domain without mutating it
// (mirrors the engine's resolution: explicit Dom, else the built-in
// default for V).
func domainOf[V comparable](p *core.Program[V]) (core.Domain[V], error) {
	if p.Dom.Name != "" {
		return p.Dom, nil
	}
	dom, ok := core.DefaultDomain[V]()
	if !ok {
		return dom, fmt.Errorf("apps: program %s has no default domain", p.Name)
	}
	return dom, nil
}

// executeCold runs p on the session and wraps the result as (outcome,
// resume), with the resume capturing the typed values and the program
// builder for the next warm round.
func executeCold[V comparable](s *cluster.Session, g *graph.Graph, build func(*graph.Graph) *core.Program[V], p *core.Program[V], opt cluster.Options) (*Outcome, *Resume, error) {
	res, err := cluster.ExecuteSession(s, g, p, opt)
	if err != nil {
		return nil, nil, err
	}
	out := outcomeFrom(res)
	return out, newResume(build, res.Result.Values, out), nil
}

// newResume builds the warm-start continuation over typed prior values and
// their outcome.
func newResume[V comparable](build func(*graph.Graph) *core.Program[V], prior []V, was *Outcome) *Resume {
	r := &Resume{}
	r.warm = func(s *cluster.Session, g *graph.Graph, added []graph.Edge, opt cluster.Options) (*Outcome, *Resume, error) {
		p := build(g)
		if p.Agg == core.Arith {
			return executeCold(s, g, build, p, opt)
		}
		return warmMinMax(s, g, build, p, prior, was, added, opt)
	}
	return r
}

// warmMinMax runs the monotone incremental wave for a min/max program.
func warmMinMax[V comparable](s *cluster.Session, g *graph.Graph, build func(*graph.Graph) *core.Program[V], p *core.Program[V], prior []V, was *Outcome, added []graph.Edge, opt cluster.Options) (*Outcome, *Resume, error) {
	n := g.NumVertices()
	if len(prior) > n {
		return nil, nil, fmt.Errorf("apps: warm state covers %d vertices but graph has %d; graphs cannot shrink incrementally", len(prior), n)
	}

	// Any improvement chain must begin with a relaxation across an added
	// edge, so the sources of the added edges are the complete seed set.
	seen := make(map[graph.VertexID]bool, len(added))
	var roots []graph.VertexID
	for _, e := range added {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, nil, fmt.Errorf("%w: added edge (%d -> %d) with n=%d", graph.ErrVertexOutOfRange, e.Src, e.Dst, n)
		}
		if !seen[e.Src] {
			seen[e.Src] = true
			roots = append(roots, e.Src)
		}
	}

	if len(roots) == 0 {
		// Pure vertex growth (or an empty batch): nothing can improve —
		// extend the prior values with cold initial state for the
		// appended, isolated vertices and skip the engine entirely.
		dom, err := domainOf(p)
		if err != nil {
			return nil, nil, err
		}
		values := make([]V, n)
		copy(values, prior)
		for v := len(prior); v < n; v++ {
			values[v] = p.InitValue(g, graph.VertexID(v))
		}
		out := &Outcome{Run: &metrics.Run{}}
		out.Values, out.Parents = reproject(dom, values, prior, was)
		return out, newResume(build, values, out), nil
	}

	warm := *p // shallow copy: the original program is shared state
	warm.InitValue = func(gg graph.View, v graph.VertexID) V {
		if int(v) < len(prior) {
			return prior[v]
		}
		return p.InitValue(gg, v)
	}
	warm.Roots = roots
	res, err := cluster.ExecuteSession(s, g, &warm, opt)
	if err != nil {
		return nil, nil, err
	}
	values := res.Result.Values
	proj, parents := reproject(res.Result.Dom, values, prior, was)
	out := outcomeWith(res, proj, parents)
	return out, newResume(build, values, out), nil
}

// reproject returns the projections of values (Outcome.Values and
// Outcome.Parents) as copies of was's, the projections of prior, with every
// vertex whose value differs from prior's in its bits, and every appended
// vertex, projected again.
func reproject[V comparable](dom core.Domain[V], values, prior []V, was *Outcome) ([]float64, []uint32) {
	proj := make([]float64, len(values))
	copy(proj, was.Values)
	dp, isDP := any(values).([]core.DistParent)
	var parents []uint32
	if isDP {
		parents = make([]uint32, len(values))
		copy(parents, was.Parents)
	}
	project := func(v int) {
		proj[v] = dom.Float64(values[v])
		if isDP {
			parents[v] = dp[v].Parent
		}
	}
	eachChanged(dom, values[:len(prior)], prior, project)
	for v := len(prior); v < len(values); v++ {
		project(v)
	}
	return proj, parents
}

// eachChanged calls fn(v) for every v whose value's bits differ between cur
// and prior (equal lengths). The built-in value types compare their bits
// inline; any other type goes through the domain's wire packing.
func eachChanged[V comparable](dom core.Domain[V], cur, prior []V, fn func(v int)) {
	switch c := any(cur).(type) {
	case []float64:
		p := any(prior).([]float64)
		for v := range p {
			if math.Float64bits(c[v]) != math.Float64bits(p[v]) {
				fn(v)
			}
		}
	case []float32:
		p := any(prior).([]float32)
		for v := range p {
			if math.Float32bits(c[v]) != math.Float32bits(p[v]) {
				fn(v)
			}
		}
	case []uint32:
		p := any(prior).([]uint32)
		for v := range p {
			if c[v] != p[v] {
				fn(v)
			}
		}
	case []core.DistParent:
		p := any(prior).([]core.DistParent)
		for v := range p {
			if c[v].Parent != p[v].Parent || math.Float32bits(c[v].Dist) != math.Float32bits(p[v].Dist) {
				fn(v)
			}
		}
	default:
		for v := range prior {
			if dom.Bits(cur[v]) != dom.Bits(prior[v]) {
				fn(v)
			}
		}
	}
}

func (r progRunner[V]) ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error) {
	build := func(*graph.Graph) *core.Program[V] { return r.p }
	return executeCold(s, g, build, r.p, opt)
}

// CC builds its program from the (symmetrised) execution graph, so its
// runners rebuild per graph version.
func (ccRunner[V]) ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error) {
	build := func(gg *graph.Graph) *core.Program[V] { return CCIn[V](gg) }
	return executeCold(s, g, build, build(g), opt)
}

func (ccU32Runner) ExecuteIn(s *cluster.Session, g *graph.Graph, opt cluster.Options) (*Outcome, *Resume, error) {
	build := func(gg *graph.Graph) *core.Program[uint32] { return CCU32(gg) }
	return executeCold(s, g, build, build(g), opt)
}
