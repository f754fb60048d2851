package graph

import (
	"errors"
	"fmt"
	"slices"

	"slfe/internal/ws"
)

// WithEdges returns a new graph containing every edge of g plus the added
// edges, over n >= g.NumVertices() vertices (new vertices start isolated).
// g itself is untouched — graphs stay immutable, which is what lets a
// resident service swap snapshot versions under concurrent readers.
//
// Instead of re-running the full Build pipeline (counting sort + per-vertex
// re-sort of all m+k edges), only the added edges are sorted and each
// touched adjacency segment is produced by a two-pointer merge with the old
// (already sorted) segment, so the rebuild cost is O(m + k log k) copies
// rather than a full re-sort.
func WithEdges(g *Graph, added []Edge, n int) (*Graph, error) {
	if n < g.NumVertices() {
		return nil, fmt.Errorf("graph: WithEdges cannot shrink the vertex set (%d -> %d); build a new graph instead", g.NumVertices(), n)
	}
	for _, e := range added {
		if int64(e.Src) >= int64(n) || int64(e.Dst) >= int64(n) {
			return nil, fmt.Errorf("%w: added edge (%d -> %d) with n=%d", ErrVertexOutOfRange, e.Src, e.Dst, n)
		}
	}
	out := &Graph{n: int64(n), m: g.m + int64(len(added))}

	sched := ws.New(0, true)
	defer sched.Close()
	out.OutOff, out.OutDst, out.OutW = mergeAdj(sched, g.OutOff, g.OutDst, g.OutW, added, n, srcOf, dstOf)
	out.InOff, out.InSrc, out.InW = mergeAdj(sched, g.InOff, g.InSrc, g.InW, added, n, dstOf, srcOf)
	return out, nil
}

func srcOf(e Edge) VertexID { return e.Src }
func dstOf(e Edge) VertexID { return e.Dst }

// mergeAdj builds one side (CSR or CSC) of the extended graph: the added
// edges are bucketed by their owning endpoint with a counting sort, each
// bucket is key-sorted like Build's sortAdjacency, and every vertex's new
// segment is the ordered merge of its old segment and its bucket. Vertex
// segments are independent, so the merge runs chunk-parallel.
func mergeAdj(sched *ws.Scheduler, oldOff []int64, oldIDs []VertexID, oldW []float32,
	added []Edge, n int, ownerOf, otherOf func(Edge) VertexID) ([]int64, []VertexID, []float32) {
	oldN := len(oldOff) - 1

	// Counting sort of the added edges into per-owner buckets.
	addOff := make([]int64, n+1)
	for _, e := range added {
		addOff[ownerOf(e)+1]++
	}
	for v := 0; v < n; v++ {
		addOff[v+1] += addOff[v]
	}
	addIDs := make([]VertexID, len(added))
	addW := make([]float32, len(added))
	cursor := make([]int64, n)
	for _, e := range added {
		o := ownerOf(e)
		p := addOff[o] + cursor[o]
		cursor[o]++
		addIDs[p] = otherOf(e)
		addW[p] = e.Weight
	}

	// New offsets: old degree (0 for new vertices) + bucket size.
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		var oldDeg int64
		if v < oldN {
			oldDeg = oldOff[v+1] - oldOff[v]
		}
		off[v+1] = off[v] + oldDeg + (addOff[v+1] - addOff[v])
	}
	m := off[n]
	ids := make([]VertexID, m)
	w := make([]float32, m)

	sched.Run(0, uint32(n), func(clo, chi uint32, _ int) {
		var keys []uint64
		for v := clo; v < chi; v++ {
			alo, ahi := addOff[v], addOff[v+1]
			var olo, ohi int64
			if int(v) < oldN {
				olo, ohi = oldOff[v], oldOff[v+1]
			}
			p := off[v]
			if ahi == alo { // untouched vertex: plain copy
				copy(ids[p:], oldIDs[olo:ohi])
				copy(w[p:], oldW[olo:ohi])
				continue
			}
			keys = sortSegment(keys[:0], addIDs[alo:ahi], addW[alo:ahi])
			// Two-pointer merge on the same (id, ordered-weight-bits) key
			// order the old segments are kept in.
			i, j := olo, int64(0)
			for i < ohi && j < int64(len(keys)) {
				ok := uint64(oldIDs[i])<<32 | uint64(orderedWeightBits(oldW[i]))
				if ok <= keys[j] {
					ids[p], w[p] = oldIDs[i], oldW[i]
					i++
				} else {
					ids[p] = VertexID(keys[j] >> 32)
					w[p] = weightFromOrderedBits(uint32(keys[j]))
					j++
				}
				p++
			}
			for ; i < ohi; i++ {
				ids[p], w[p] = oldIDs[i], oldW[i]
				p++
			}
			for ; j < int64(len(keys)); j++ {
				ids[p] = VertexID(keys[j] >> 32)
				w[p] = weightFromOrderedBits(uint32(keys[j]))
				p++
			}
		}
	})
	return off, ids, w
}

// sortSegment appends the AdjSortKey of every (id, weight) pair to keys
// and returns them sorted ascending.
func sortSegment(keys []uint64, ids []VertexID, w []float32) []uint64 {
	for i := range ids {
		keys = append(keys, AdjSortKey(ids[i], w[i]))
	}
	// Insertion sort: segments are typically short (a batch's bucket, or a
	// typical adjacency list); fall back to a pdq sort when not.
	if len(keys) > 32 {
		slices.Sort(keys)
		return keys
	}
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
	return keys
}

// WithoutEdges returns a new graph with every (src, dst) pair listed in
// removed deleted — all parallel instances of a listed pair are dropped and
// weights are ignored for matching. The second result is the number of
// directed edges actually removed (listing a non-existent pair is a no-op).
// Like WithEdges, g is untouched.
func WithoutEdges(g *Graph, removed []Edge) (*Graph, int64, error) {
	if len(removed) == 0 {
		return g, 0, nil
	}
	kill := make(map[uint64]struct{}, len(removed))
	for _, e := range removed {
		if int64(e.Src) >= g.n || int64(e.Dst) >= g.n {
			return nil, 0, fmt.Errorf("%w: removed edge (%d -> %d) with n=%d", ErrVertexOutOfRange, e.Src, e.Dst, g.n)
		}
		kill[uint64(e.Src)<<32|uint64(e.Dst)] = struct{}{}
	}
	n := int(g.n)
	out := &Graph{n: g.n}

	filter := func(off []int64, ids []VertexID, w []float32, pairOf func(v VertexID, other VertexID) uint64) ([]int64, []VertexID, []float32, int64) {
		nOff := make([]int64, n+1)
		nIDs := make([]VertexID, 0, len(ids))
		nW := make([]float32, 0, len(w))
		var dropped int64
		for v := 0; v < n; v++ {
			for i := off[v]; i < off[v+1]; i++ {
				if _, dead := kill[pairOf(VertexID(v), ids[i])]; dead {
					dropped++
					continue
				}
				nIDs = append(nIDs, ids[i])
				nW = append(nW, w[i])
			}
			nOff[v+1] = int64(len(nIDs))
		}
		return nOff, nIDs, nW, dropped
	}

	var outDropped, inDropped int64
	out.OutOff, out.OutDst, out.OutW, outDropped = filter(g.OutOff, g.OutDst, g.OutW,
		func(v, other VertexID) uint64 { return uint64(v)<<32 | uint64(other) })
	out.InOff, out.InSrc, out.InW, inDropped = filter(g.InOff, g.InSrc, g.InW,
		func(v, other VertexID) uint64 { return uint64(other)<<32 | uint64(v) })
	if outDropped != inDropped {
		return nil, 0, errors.New("graph: CSR/CSC disagree on removed edge count (corrupt graph)")
	}
	out.m = g.m - outDropped
	return out, outDropped, nil
}
