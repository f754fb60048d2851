package ckpt

import (
	"errors"
	"fmt"
	"slices"
)

// Merge folds one epoch's shards into a single global restore state. The
// shards must all come from the same checkpoint — same program, kind,
// iteration, domain, width and partition bounds — and cover every rank of
// the writing epoch exactly once; any shard may be an original or a buddy
// replica (they are byte-identical). The output carries no Rank/Bounds:
// it is epoch-agnostic and can seed a run on any new membership.
//
// Per-vertex state (Values, StableCnt, StableVal) is taken from each
// vertex's owner, because under sparse delta-sync only the owner's copy is
// authoritative. The bit sets are unioned: every owner holds its own
// changed-frontier bits, so the frontier union is exactly the global
// changed set, while every other set (sparsedirty) is owned-range state
// and is restricted to each shard's range before the union.
func Merge(shards []*State) (*State, error) {
	if len(shards) == 0 {
		return nil, errors.New("ckpt: merge of no shards")
	}
	ref := shards[0]
	if err := ref.CheckBounds(); err != nil {
		return nil, err
	}
	workers := len(ref.Bounds) - 1
	if len(shards) != workers {
		return nil, fmt.Errorf("ckpt: %d shards for %d-rank bounds", len(shards), workers)
	}
	n := len(ref.Values)
	out := &State{
		Program: ref.Program,
		Kind:    ref.Kind,
		Iter:    ref.Iter,
		Domain:  ref.Domain,
		Width:   ref.Width,
		Values:  make([]uint64, n),
	}
	if len(ref.StableCnt) > 0 {
		out.StableCnt = make([]uint32, n)
		out.StableVal = make([]uint64, n)
	}
	seen := make([]bool, workers)
	union := make(map[string][]bool)
	for _, s := range shards {
		if s.Program != ref.Program || s.Kind != ref.Kind || s.Iter != ref.Iter ||
			s.Domain != ref.Domain || s.Width != ref.Width {
			return nil, fmt.Errorf("ckpt: shard from rank %d disagrees with rank %d on checkpoint identity", s.Rank, ref.Rank)
		}
		if !slices.Equal(s.Bounds, ref.Bounds) {
			return nil, fmt.Errorf("ckpt: shard from rank %d has different bounds", s.Rank)
		}
		r := int(s.Rank)
		if r < 0 || r >= workers {
			return nil, fmt.Errorf("ckpt: shard rank %d outside bounds for %d workers", r, workers)
		}
		if seen[r] {
			return nil, fmt.Errorf("ckpt: duplicate shard for rank %d", r)
		}
		seen[r] = true
		if len(s.Values) != n {
			return nil, fmt.Errorf("ckpt: shard from rank %d holds %d values, want %d", r, len(s.Values), n)
		}
		lo, hi := s.Bounds[r], s.Bounds[r+1]
		copy(out.Values[lo:hi], s.Values[lo:hi])
		if out.StableCnt != nil {
			if len(s.StableCnt) != n || len(s.StableVal) != n {
				return nil, fmt.Errorf("ckpt: shard from rank %d has truncated stable arrays", r)
			}
			copy(out.StableCnt[lo:hi], s.StableCnt[lo:hi])
			copy(out.StableVal[lo:hi], s.StableVal[lo:hi])
		}
		for key, ids := range s.Sets {
			b := union[key]
			if b == nil {
				b = make([]bool, n)
				union[key] = b
			}
			ownedOnly := key != "frontier"
			for _, id := range ids {
				if int(id) >= n {
					return nil, fmt.Errorf("ckpt: shard from rank %d: set %q id %d out of range", r, key, id)
				}
				if ownedOnly && (id < lo || id >= hi) {
					continue
				}
				b[id] = true
			}
		}
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("ckpt: merge missing rank %d's shard", r)
		}
	}
	if len(union) > 0 {
		out.Sets = make(map[string][]uint32, len(union))
		for key, b := range union {
			var ids []uint32
			for i, set := range b {
				if set {
					ids = append(ids, uint32(i))
				}
			}
			out.Sets[key] = ids
		}
	}
	return out, nil
}
