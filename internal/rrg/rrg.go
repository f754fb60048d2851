// Package rrg implements SLFE's preprocessing stage (Algorithm 1 of the
// paper): a unit-weight label propagation that records, for every vertex,
// the *last* iteration at which an active in-neighbour could deliver an
// update. The paper drives two optimisations of the execution phase with
// this "redundancy reduction guidance" (RRG):
//
//   - start late  — a min/max vertex need not compute before LastIter(v);
//   - finish early — an arithmetic vertex whose value has been stable for
//     LastIter(v) consecutive iterations is early-converged.
//
// The engine applies only finish early. Start late cost more than it saved
// against the engine's own push/pull switch on every input measured, so a
// min/max run reads no guidance (README, "Start late").
//
// With unit weights, Algorithm 1's "visited" rule means the first update
// assigns the BFS distance; a vertex is active during iteration level(v)+1,
// therefore
//
//	LastIter(v) = max{ level(u)+1 : u ∈ in(v), u reachable }
//
// which is what Generate computes, with a parallel frontier BFS followed by
// a parallel in-edge sweep. The guidance depends only on topology, so it is
// reusable across applications on the same graph (§3.2): Shared generates
// it from DefaultRoots once per graph object and hands that one guidance to
// every later run, and Carry moves it across an insertion batch to the next
// graph version. The service calls Carry only while an arith program is
// registered: that program's re-execution is a cold RR run over the new
// version, and any later cold arith run over a version nothing was carried
// to generates through Shared. A converted .slfc file still carries it
// (package store writes it at conversion), so a graph opened from one
// arrives with its slot already full and no finish-early run on it
// generates. The one exception is an arithmetic program whose information
// starts at its own roots (NumPaths, HeatSimulation, evidence-rooted BP):
// finish early needs levels measured from those roots, so its run
// generates them.
package rrg

import (
	"math"
	"time"

	"slfe/internal/bitset"
	"slfe/internal/graph"
	"slfe/internal/ws"
)

// Unreached marks vertices not reachable from the preprocessing roots.
const Unreached = math.MaxUint32

// Guidance is the RRG produced by preprocessing.
type Guidance struct {
	// LastIter[v] is the last propagation level at which v can receive an
	// update (0 for roots with no reachable in-neighbours and for
	// unreachable vertices).
	LastIter []uint32
	// Level[v] is the BFS level from the roots (Unreached if unreachable).
	// Only Update and Carry read it. It is nil for guidance decoded from a
	// .slfc file, which is never carried.
	Level []uint32
	// Rounds is the number of propagation iterations preprocessing ran.
	Rounds uint32
	// MaxLastIter is the maximum of LastIter.
	MaxLastIter uint32
	// GenTime is the wall-clock cost of Generate, reported as the
	// preprocessing overhead in Figure 8.
	GenTime time.Duration
}

// Generate runs Algorithm 1 from the given roots. A nil scheduler uses a
// fresh default scheduler.
func Generate(g graph.View, roots []graph.VertexID, sched *ws.Scheduler) *Guidance {
	if sched == nil {
		sched = ws.New(0, true)
		defer sched.Close()
	}
	start := time.Now()
	n := g.NumVertices()
	gd := &Guidance{
		LastIter: make([]uint32, n),
		Level:    make([]uint32, n),
	}
	for i := range gd.Level {
		gd.Level[i] = Unreached
	}
	if n == 0 {
		gd.GenTime = time.Since(start)
		return gd
	}

	// One adjacency cursor per scheduler thread: chunk bodies must not
	// share the View's own decoder (disk-backed graphs decode blocks
	// into per-cursor scratch).
	curs := make([]graph.Cursor, sched.Threads())
	for i := range curs {
		curs[i] = g.Cursor()
	}

	visited := bitset.NewAtomic(n)
	frontier := bitset.NewAtomic(n)
	next := bitset.NewAtomic(n)
	for _, r := range roots {
		if int(r) < n && visited.TestAndSet(int(r)) {
			gd.Level[r] = 0
			frontier.Set(int(r))
		}
	}

	// Phase 1: parallel BFS levels ("fill_source" + propagation loop). The
	// chunk body is created once and reads the level's frontier/next/iter
	// through the enclosing variables; it walks the frontier's set bits, so
	// a level costs its frontier, not |V| bit tests.
	iter := uint32(1)
	expand := func(lo, hi uint32, th int) {
		cur := curs[th]
		it := frontier.IterIn(int(lo), int(hi))
		for v := it.Next(); v >= 0; v = it.Next() {
			for _, u := range cur.OutNeighbors(graph.VertexID(v)) {
				if visited.TestAndSet(int(u)) {
					gd.Level[u] = iter
					next.Set(int(u))
				}
			}
		}
	}
	for ; frontier.Any(); iter++ {
		sched.Run(0, uint32(n), expand)
		frontier, next = next, frontier
		next.Reset()
	}
	// Rounds is the propagation depth: the deepest iteration that delivered
	// an update.
	for _, l := range gd.Level {
		if l != Unreached && l > gd.Rounds {
			gd.Rounds = l
		}
	}

	// Phase 2: LastIter(v) = max level(u)+1 over reachable in-neighbours.
	sched.Run(0, uint32(n), func(lo, hi uint32, th int) {
		for v := lo; v < hi; v++ {
			var last uint32
			for _, u := range curs[th].InNeighbors(v) {
				if l := gd.Level[u]; l != Unreached && l+1 > last {
					last = l + 1
				}
			}
			gd.LastIter[v] = last
		}
	})
	for _, l := range gd.LastIter {
		if l > gd.MaxLastIter {
			gd.MaxLastIter = l
		}
	}
	gd.GenTime = time.Since(start)
	return gd
}

// DefaultRoots returns the canonical reusable root set for a graph: vertex
// 0 plus every vertex with no incoming edges (sources can never be reached
// by propagation, so they must seed it). keepsDefaultRoots is the same rule
// applied to an insertion batch.
func DefaultRoots(g graph.View) []graph.VertexID {
	roots := []graph.VertexID{}
	n := g.NumVertices()
	if n == 0 {
		return roots
	}
	roots = append(roots, 0)
	for v := 1; v < n; v++ {
		if g.InDegree(graph.VertexID(v)) == 0 {
			roots = append(roots, graph.VertexID(v))
		}
	}
	return roots
}

// Shared returns Generate(g, DefaultRoots(g), sched) from g's graph.Derived
// slot, generating it exactly once per graph object even under concurrent
// callers; fresh reports whether this call generated it. A graph opened
// from a .slfc file that carries guidance has its slot filled at open, so
// Shared never generates for it. A View without a slot gets a fresh
// guidance every call. The result is shared: Clone it
// before Update.
func Shared(g graph.View, sched *ws.Scheduler) (gd *Guidance, fresh bool) {
	build := func() any { fresh = true; return Generate(g, DefaultRoots(g), sched) }
	if s, ok := g.(interface{ Derived() *graph.Derived }); ok {
		return s.Derived().Get(build).(*Guidance), fresh
	}
	return build().(*Guidance), fresh
}

// Carry moves the shared guidance across an insertion batch: next must be
// prev plus the added edges, possibly with appended vertices. When both
// graphs have the same default root set, next's slot is seeded with
// Shared(prev) cloned and Updated — a relaxation wave instead of a fresh
// BFS. Otherwise Update's fixed-root premise fails (a source that gains an
// in-edge stops being a root; an appended source becomes one), so next's
// slot stays empty and the first Shared call on next generates.
func Carry(prev, next *graph.Graph, added []graph.Edge, sched *ws.Scheduler) {
	if !keepsDefaultRoots(prev, next, added) {
		return
	}
	gd, _ := Shared(prev, sched)
	gd = gd.Clone()
	if _, err := gd.Update(next, added); err != nil {
		return // next is not prev plus added: let Shared generate
	}
	next.Derived().Get(func() any { return gd })
}

// keepsDefaultRoots reports whether DefaultRoots(next) equals
// DefaultRoots(prev) when next is prev plus added: no added edge lands on a
// vertex other than 0 that had no in-edge in prev, and no appended vertex is
// a root of next (vertex 0 of a previously empty graph, or a vertex with no
// in-edge).
func keepsDefaultRoots(prev, next *graph.Graph, added []graph.Edge) bool {
	n := prev.NumVertices()
	for _, e := range added {
		if e.Dst != 0 && int(e.Dst) < n && prev.InDegree(e.Dst) == 0 {
			return false
		}
	}
	for v := n; v < next.NumVertices(); v++ {
		if v == 0 || next.InDegree(graph.VertexID(v)) == 0 {
			return false
		}
	}
	return true
}

// Reached reports whether v was reached during preprocessing. It needs
// Level, so it does not apply to guidance decoded from a .slfc file.
func (gd *Guidance) Reached(v graph.VertexID) bool { return gd.Level[v] != Unreached }

// Clone returns a deep copy sharing no storage with gd. Update mutates the
// guidance in place, so Carry clones the previous graph's shared guidance
// before updating it — runs still pinned to the old graph keep an unchanging
// view.
func (gd *Guidance) Clone() *Guidance {
	cp := *gd
	cp.LastIter = append([]uint32(nil), gd.LastIter...)
	cp.Level = append([]uint32(nil), gd.Level...)
	return &cp
}
