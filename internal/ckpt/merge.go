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
// it holds every vertex, is epoch-agnostic and can seed a run on any new
// membership. Checkpoint resume and fault recovery both restore through it.
//
// A shard holds only its writer's owned range, and under sparse delta-sync
// only the owner's copy of a vertex is authoritative, so every vertex's
// state (Values, StableCnt, StableVal) comes from its owner's shard and
// every set is the union of the owners' ranges of it: each owner holds its
// own changed-frontier bits, so the frontier union is exactly the global
// changed set.
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
	// Validate every shard before allocating: the global size is only what
	// the bounds claim until every owned range has proved its length.
	seen := make([]bool, workers)
	stable := false
	for _, s := range shards {
		if s.Program != ref.Program || s.Kind != ref.Kind || s.Iter != ref.Iter ||
			s.Domain != ref.Domain || s.Width != ref.Width {
			return nil, fmt.Errorf("ckpt: shard from rank %d disagrees with rank %d on checkpoint identity", s.Rank, ref.Rank)
		}
		if !slices.Equal(s.Bounds, ref.Bounds) {
			return nil, fmt.Errorf("ckpt: shard from rank %d has different bounds", s.Rank)
		}
		if err := s.CheckBounds(); err != nil {
			return nil, err
		}
		if seen[s.Rank] {
			return nil, fmt.Errorf("ckpt: duplicate shard for rank %d", s.Rank)
		}
		seen[s.Rank] = true
		stable = stable || len(s.StableCnt) > 0
	}
	n := int(ref.Bounds[workers])
	out := &State{
		Program: ref.Program,
		Kind:    ref.Kind,
		Iter:    ref.Iter,
		Domain:  ref.Domain,
		Width:   ref.Width,
		Values:  make([]uint64, n),
	}
	if stable {
		out.StableCnt = make([]uint32, n)
		out.StableVal = make([]uint64, n)
	}
	union := make(map[string][]bool)
	for _, s := range shards {
		r := s.Rank
		lo, hi := s.Bounds[r], s.Bounds[r+1]
		copy(out.Values[lo:hi], s.Values)
		if stable {
			if len(s.StableCnt) != int(hi-lo) {
				return nil, fmt.Errorf("ckpt: shard from rank %d has truncated stable arrays", r)
			}
			copy(out.StableCnt[lo:hi], s.StableCnt)
			copy(out.StableVal[lo:hi], s.StableVal)
		}
		for key, ids := range s.Sets {
			b := union[key]
			if b == nil {
				b = make([]bool, n)
				union[key] = b
			}
			for _, id := range ids {
				if id < lo || id >= hi {
					return nil, fmt.Errorf("ckpt: shard from rank %d: set %q id %d outside its owned range [%d,%d)", r, key, id, lo, hi)
				}
				b[id] = true
			}
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
