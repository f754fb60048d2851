package core

import (
	"fmt"

	"slfe/internal/ckpt"
)

// ckptTick is the engine's reusable checkpoint working set: the shard
// header and set listings are rebuilt in place every tick, and the writer
// owns the two pooled encode buffers and the background save.
type ckptTick struct {
	w     *ckpt.Writer
	snap  ckpt.State
	sets  map[string][]uint32
	dirty []uint32 // the shard's sparse-dirty listing
}

// checkpoint is the tick after superstep iter: one pass over the owned
// range encodes the shard straight from the typed arrays into the free
// pooled buffer, the ring exchange (collective, so it stays here) swaps
// those same bytes with the buddy under Ckpt.Replicate, and the writer
// saves both in the background once the previous tick's save is done.
func (e *Engine[V]) checkpoint(p *Program[V], k kernel[V], st *state[V], iter int) error {
	m, ck := e.cfg.Ckpt, &e.ck
	if ck.w == nil {
		ck.w = ckpt.NewWriter(m, e.comm.Rank())
		ck.sets = make(map[string][]uint32, 2)
	}
	clear(ck.sets)
	ck.snap = ckpt.State{
		Program: p.Name,
		Kind:    k.kind(),
		Iter:    uint32(iter),
		Domain:  e.dom.Name,
		Width:   uint8(e.dom.Width),
		Rank:    uint32(e.comm.Rank()),
		Bounds:  e.part.Bounds(),
		Sets:    ck.sets,
	}
	stable := k.snapshot(&ck.snap)
	if e.dirty != nil {
		// The sparse-only distribution state must survive a resume, or the
		// final consistency flush would miss these vertices.
		ck.dirty = e.collectBitsInto(ck.dirty[:0], e.dirty, e.lo, e.hi)
		ck.sets["sparsedirty"] = ck.dirty
	}
	shard := ckpt.AppendTyped(ck.w.Buffer(), &ck.snap, st.values[e.lo:e.hi], stable, e.dom.Bits)
	var replica []byte
	if m.Replicate && e.comm.Size() > 1 {
		// Every rank reaches the tick at the same iteration (the loop is
		// barrier-aligned), so the ring pairs off deterministically. The
		// received payload is a fresh buffer the writer may keep.
		var err error
		if replica, err = e.comm.RingExchange(shard); err != nil {
			return err
		}
	}
	return ck.w.Submit(uint32(iter), shard, replica)
}

// drainCkpt waits for the checkpoint save in flight, if any, and returns
// its error.
func (e *Engine[V]) drainCkpt() error {
	if e.ck.w == nil {
		return nil
	}
	return e.ck.w.Drain()
}

// loadCheckpoint returns the state to resume from: the pre-merged Restore
// state when the recovery driver supplied one, else the merge of every
// rank's shard of the latest complete checkpoint, else nil. Either source
// must carry this run's domain tag: a value array is meaningless bits in
// any other domain. A merged state holds every vertex's owner-authoritative
// state, so the run resumes under Part whatever ranges wrote the shards.
func (e *Engine[V]) loadCheckpoint(p *Program[V], kind ckpt.Kind) (*ckpt.State, error) {
	s := e.cfg.Restore
	if m := e.cfg.Ckpt; s == nil && m != nil && m.Resume {
		var err error
		if s, err = e.mergeLatest(m); err != nil || s == nil {
			return nil, err
		}
	}
	if s == nil {
		return nil, nil
	}
	if err := e.validateSnap(s, p, kind); err != nil {
		return nil, err
	}
	return s, nil
}

// mergeLatest loads every rank's shard of m's latest complete checkpoint
// and merges them (nil: no complete checkpoint).
func (e *Engine[V]) mergeLatest(m *ckpt.Manager) (*ckpt.State, error) {
	size := e.comm.Size()
	iter, err := m.LatestComplete(size)
	if err != nil || iter < 0 {
		return nil, err
	}
	shards := make([]*ckpt.State, size)
	for rank := range shards {
		if shards[rank], err = m.Load(iter, rank); err != nil {
			return nil, err
		}
	}
	if w := len(shards[0].Bounds) - 1; w >= 1 && w != size {
		return nil, fmt.Errorf("core: checkpoint was written by %d ranks, resuming on %d", w, size)
	}
	return ckpt.Merge(shards)
}

// validateSnap checks that a checkpoint state matches the running program,
// loop kind, domain and graph.
func (e *Engine[V]) validateSnap(s *ckpt.State, p *Program[V], kind ckpt.Kind) error {
	if s.Program != p.Name {
		return fmt.Errorf("core: checkpoint is for program %q, running %q", s.Program, p.Name)
	}
	if s.Kind != kind {
		return fmt.Errorf("core: checkpoint kind %d does not match loop %d", s.Kind, kind)
	}
	if s.Domain != e.dom.Name || int(s.Width) != e.dom.Width {
		return fmt.Errorf("core: checkpoint carries domain %q (width %d) but the program runs domain %q (width %d); resume with the original domain or delete the checkpoint directory",
			s.Domain, s.Width, e.dom.Name, e.dom.Width)
	}
	if len(s.Values) != e.g.NumVertices() {
		return fmt.Errorf("core: checkpoint has %d values for a graph of %d vertices", len(s.Values), e.g.NumVertices())
	}
	return nil
}

// decodeValues converts a checkpoint bit-word array back into dst.
func (e *Engine[V]) decodeValues(dst []V, words []uint64) {
	for i, w := range words {
		dst[i] = e.dom.FromBits(w)
	}
}
