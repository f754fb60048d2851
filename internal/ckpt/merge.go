package ckpt

import (
	"errors"
	"fmt"
	"path/filepath"
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
// A shard holds only its writer's owned range, so every vertex's state
// (Values, StableCnt, StableVal) comes from its owner's shard and every set
// is the union of the owners' ranges of it: each owner holds its own
// changed-frontier bits, so the frontier union is exactly the global
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

// MergeLatest merges m's latest complete checkpoint for a run on size
// ranks: the shard of each rank 0..size-1 that LatestComplete finds. It
// returns nil when no complete checkpoint exists, and refuses a set
// written by another number of ranks. Program, kind and domain are the
// engine's to check, since only it knows what it runs.
func (m *Manager) MergeLatest(size int) (*State, error) {
	iter, err := m.LatestComplete(size)
	if err != nil || iter < 0 {
		return nil, err
	}
	shards := make([]*State, size)
	for rank := range shards {
		if shards[rank], err = m.Load(iter, rank); err != nil {
			return nil, err
		}
	}
	if w := len(shards[0].Bounds) - 1; w >= 1 && w != size {
		return nil, fmt.Errorf("ckpt: checkpoint was written by %d ranks, resuming on %d", w, size)
	}
	return Merge(shards)
}

// Ranks returns one private manager per rank 0..n-1, the layout
// rank-failure recovery checkpoints into: rank r writes only to
// m.Dir/rank-NNN, at m's interval, and replicates every shard to its ring
// buddy, because recovery assumes no shared storage.
func (m *Manager) Ranks(n int) []*Manager {
	out := make([]*Manager, n)
	for r := range out {
		out[r] = &Manager{Dir: filepath.Join(m.Dir, fmt.Sprintf("rank-%03d", r)), Every: m.Every, Replicate: true}
	}
	return out
}

// Pick returns managers[id] for each id in members, in order: one epoch's
// managers by epoch rank, out of the per-original-rank set Ranks built.
func Pick(managers []*Manager, members []int) []*Manager {
	out := make([]*Manager, len(members))
	for i, id := range members {
		out[i] = managers[id]
	}
	return out
}

// MergeNewest scans the managers' directories for the newest checkpoint
// of program written by a k-rank epoch whose shard set is complete: every
// writing rank's shard present, as its own file or as a buddy's replica in
// any of the directories, all under one set of bounds. It merges that set
// and returns the state, the writing epoch's partition bounds, and
// whether any shard came from a replica; nil when no complete set merges.
// Shards of other programs or rank counts are skipped, so the directories
// may also hold other runs' checkpoints. Only the given directories are
// read: recovery passes the survivors', never a dead rank's.
func MergeNewest(managers []*Manager, program string, k int) (*State, []uint32, bool) {
	byIter := make(map[uint32][]stored)
	for _, m := range managers {
		for _, st := range m.states() {
			s := st.state
			if s.Program != program || len(s.Bounds) != k+1 || int(s.Rank) >= k {
				continue
			}
			slots := byIter[s.Iter]
			if slots == nil {
				slots = make([]stored, k)
				byIter[s.Iter] = slots
			}
			cur := &slots[s.Rank]
			// Prefer the owner's original over a replica (they are
			// byte-identical; the preference keeps reporting honest).
			if cur.state == nil || (cur.replica && !st.replica) {
				*cur = st
			}
		}
	}
	best := int64(-1)
	for iter, slots := range byIter {
		incomplete := slices.ContainsFunc(slots, func(sl stored) bool {
			return sl.state == nil || !slices.Equal(sl.state.Bounds, slots[0].state.Bounds)
		})
		if !incomplete && int64(iter) > best {
			best = int64(iter)
		}
	}
	if best < 0 {
		return nil, nil, false
	}
	shards := make([]*State, k)
	fromReplica := false
	for i, sl := range byIter[uint32(best)] {
		shards[i] = sl.state
		fromReplica = fromReplica || sl.replica
	}
	merged, err := Merge(shards)
	if err != nil {
		return nil, nil, false
	}
	return merged, shards[0].Bounds, fromReplica
}
