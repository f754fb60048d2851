package core

import (
	"fmt"

	"slfe/internal/ckpt"
)

// ckptTick is the engine's reusable checkpoint working set: the shard
// header and set listings are rebuilt in place every tick, and the writer
// owns the two pooled encode buffers and the background save.
type ckptTick struct {
	w    *ckpt.Writer
	snap ckpt.State
	sets map[string][]uint32
}

// checkpoint is the tick after superstep iter: one pass over the owned
// range encodes the shard straight from the typed arrays into the free
// pooled buffer, and the writer saves it in the background once the
// previous tick's save is done.
func (e *Engine[V]) checkpoint(p *Program[V], k kernel[V], st *state[V], iter int) error {
	ck := &e.ck
	if ck.w == nil {
		ck.w = ckpt.NewWriter(e.cfg.Ckpt, e.comm.Rank())
		ck.sets = make(map[string][]uint32, 1)
	}
	clear(ck.sets)
	ck.snap = ckpt.State{
		Program: p.Name,
		Kind:    k.kind(),
		Iter:    uint32(iter),
		Domain:  e.dom.Name,
		Width:   uint8(e.dom.Width),
		Rank:    uint32(e.comm.Rank()),
		Bounds:  e.cfg.Part.Bounds(),
		Sets:    ck.sets,
	}
	stable := k.snapshot(&ck.snap)
	shard := ckpt.AppendTyped(ck.w.Buffer(), &ck.snap, st.values[e.lo:e.hi], stable, e.dom.Bits)
	return ck.w.Submit(uint32(iter), shard)
}

// drainCkpt waits for the checkpoint save in flight, if any, and returns
// its error.
func (e *Engine[V]) drainCkpt() error {
	if e.ck.w == nil {
		return nil
	}
	return e.ck.w.Drain()
}

// validateSnap checks that the Restore state matches the running program,
// loop kind, domain and graph: a value array is meaningless bits in any
// other domain.
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
