// Package service hosts a resident SLFE graph: a versioned in-memory graph
// that accepts mutation batches and incrementally re-executes registered
// programs against every new version, serving results over HTTP. It is the
// long-lived counterpart of the run-to-completion CLI: while an arith
// program is registered, each graph version's shared guidance is carried
// across insertion batches (rrg.Carry) instead of regenerated, min/max
// programs warm-start from their prior fixed point, and reads are served
// from immutable snapshots so they never block behind a mutation.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"slfe/internal/graph"
)

// Decode limits: a mutation batch is a control-plane request, not a bulk
// loader — oversized batches are rejected before any allocation is sized
// from attacker-controlled counts.
const (
	// MaxBatchEdges bounds len(add)+len(del) in one batch.
	MaxBatchEdges = 1 << 20
	// MaxAddVertices bounds vertex growth in one batch.
	MaxAddVertices = 1 << 20
)

// Batch is one decoded graph mutation: optional vertex growth, edge
// insertions, and edge deletions (deletions force the full-regeneration
// fallback; see Service.Apply).
type Batch struct {
	// AddVertices appends this many isolated vertices before edges apply.
	AddVertices int
	// Adds are inserted edges; endpoints may address appended vertices.
	Adds []graph.Edge
	// Deletes remove every parallel instance of each (src, dst) pair;
	// weights are ignored.
	Deletes []graph.Edge
}

// wireBatch is the JSON surface of a mutation request.
type wireBatch struct {
	AddVertices *int64     `json:"add_vertices"`
	Add         []wireEdge `json:"add"`
	Del         []wireEdge `json:"del"`
}

// wireEdge requires explicit endpoints — a missing "src" must be a decode
// error, not vertex 0 — while weight defaults to 1 like the text loader.
type wireEdge struct {
	Src    *int64   `json:"src"`
	Dst    *int64   `json:"dst"`
	Weight *float64 `json:"weight"`
}

// ErrBatchTooLarge reports a batch over the decode limits.
var ErrBatchTooLarge = errors.New("service: mutation batch exceeds size limits")

// DecodeBatch parses and validates one mutation request against the current
// vertex count. Unknown fields, missing endpoints, non-finite or negative
// values, and endpoints outside [0, curVertices+add_vertices) are all
// rejected; a syntactically valid batch therefore applies cleanly or not at
// all.
func DecodeBatch(data []byte, curVertices int) (*Batch, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireBatch
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("service: invalid mutation body: %w", err)
	}
	// A second JSON value after the batch object is junk, not padding.
	if dec.More() {
		return nil, errors.New("service: trailing data after mutation body")
	}

	b := &Batch{}
	if w.AddVertices != nil {
		av := *w.AddVertices
		if av < 0 {
			return nil, fmt.Errorf("service: add_vertices must be non-negative (got %d)", av)
		}
		if av > MaxAddVertices {
			return nil, fmt.Errorf("%w: add_vertices %d > %d", ErrBatchTooLarge, av, MaxAddVertices)
		}
		b.AddVertices = int(av)
	}
	if len(w.Add)+len(w.Del) > MaxBatchEdges {
		return nil, fmt.Errorf("%w: %d edges > %d", ErrBatchTooLarge, len(w.Add)+len(w.Del), MaxBatchEdges)
	}
	if curVertices > math.MaxInt-b.AddVertices {
		return nil, fmt.Errorf("%w: vertex count overflows", ErrBatchTooLarge)
	}

	newN := curVertices + b.AddVertices
	decodeEdge := func(field string, i int, e wireEdge, deletion bool) (graph.Edge, error) {
		if e.Src == nil || e.Dst == nil {
			return graph.Edge{}, fmt.Errorf("service: %s[%d]: src and dst are required", field, i)
		}
		src, dst := *e.Src, *e.Dst
		if src < 0 || dst < 0 || src >= int64(newN) || dst >= int64(newN) {
			return graph.Edge{}, fmt.Errorf("service: %s[%d]: endpoint (%d -> %d) outside [0, %d)", field, i, src, dst, newN)
		}
		weight := 1.0
		if e.Weight != nil {
			weight = *e.Weight
			if deletion {
				return graph.Edge{}, fmt.Errorf("service: %s[%d]: deletions match (src, dst) pairs; weight is not accepted", field, i)
			}
			if math.IsNaN(weight) || math.IsInf(weight, 0) {
				return graph.Edge{}, fmt.Errorf("service: %s[%d]: weight must be finite", field, i)
			}
		}
		return graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: float32(weight)}, nil
	}
	for i, e := range w.Add {
		edge, err := decodeEdge("add", i, e, false)
		if err != nil {
			return nil, err
		}
		b.Adds = append(b.Adds, edge)
	}
	for i, e := range w.Del {
		edge, err := decodeEdge("del", i, e, true)
		if err != nil {
			return nil, err
		}
		// A deletion addressing an appended vertex can never match an edge.
		if int(edge.Src) >= curVertices || int(edge.Dst) >= curVertices {
			return nil, fmt.Errorf("service: del[%d]: endpoint (%d -> %d) outside existing [0, %d)", i, edge.Src, edge.Dst, curVertices)
		}
		b.Deletes = append(b.Deletes, edge)
	}

	if b.AddVertices == 0 && len(b.Adds) == 0 && len(b.Deletes) == 0 {
		return nil, errors.New("service: empty mutation batch")
	}
	return b, nil
}
