package store

import (
	"encoding/binary"
	"math"

	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// Cursor decodes adjacency blocks into its own reusable scratch and charges
// a block only for what its reader asks of it.
//
// Cached per direction: the neighbour ids of the most recent block, that
// block's vertex→edge ranges, and — separately — the weights of the most
// recent block whose weights were requested. Lazy: a weight block is decoded
// (and, out of core, pread) on the first {In,Out}Weights call that lands in
// it, so ids-only readers (rrg.Generate, frontier statistics) never touch
// the weight section; const-1 weights are served from one ones slice per
// cursor and decode nothing.
//
// An id block decodes through one decoder: load resolves the block's
// vertex→edge ranges, and decodeBlock unpacks the Stream VByte groups and
// turns each list's gaps into absolute ids, testing only a list's last sum
// against n. Validate runs the same decoder.
//
// Blocks decode once per open graph: a mapped or resident graph keeps the
// ids and weights of every block a cursor decodes, in a fresh slice the
// first cursor publishes for the others and none writes again: at most the
// decoded adjacency the heap CSR+CSC of the same edges holds, and under an
// OpenBudget budget what the mapping leaves of it (see cacheHot). Out of
// core nothing is kept.
//
// The engine's chunk size (256 vertices) spans four 64-vertex blocks, so a
// sequential chunk scan decodes each block at most once; steady state
// performs zero allocations. Returned slices alias cursor scratch or kept
// blocks, are read-only, and are valid until the next call for that direction.
// Cursors are single-goroutine; take one per thread via (*Graph).Cursor.
type Cursor struct {
	g       *Graph
	out, in dirCur
	ones    []float32 // const-1 weights, all 1.0, grown to the widest list served
}

type dirCur struct {
	block  int64 // block whose ids are decoded, -1 when empty
	wblock int64 // block whose weights are decoded, -1 when empty
	start  int64 // first vertex of block
	// rel[i] is the scratch offset of vertex start+i's first edge, clamped
	// monotone into [0,len(ids)] so corrupt indexes degrade to empty/garbage
	// adjacency rather than a panic (Open/Validate report corruption; the
	// cursor only has to stay memory-safe).
	rel  []int
	ids  []graph.VertexID // the block's decoded neighbour ids: own, or the graph's kept copy
	own  []graph.VertexID // decode scratch for blocks the graph does not keep
	ws   []float32        // weights parallel to ids when wblock == block: ownW, or the graph's kept copy
	ownW []float32        // weight decode scratch for blocks the graph does not keep
	buf  []byte           // pread scratch for adjacency bytes (reader mode)
	wb   []byte           // pread scratch for weight bytes (reader mode)

	// Decode counters, read by the package's contract tests.
	idBlocks, wBlocks int64
}

// Cursor returns an independent adjacency reader (graph.View).
func (g *Graph) Cursor() graph.Cursor { return g.newCursor() }

func (g *Graph) newCursor() *Cursor {
	c := &Cursor{g: g}
	c.out.block, c.in.block = -1, -1
	c.out.wblock, c.in.wblock = -1, -1
	return c
}

// OutNeighbors returns v's out-neighbours.
func (c *Cursor) OutNeighbors(v graph.VertexID) []graph.VertexID {
	lo, hi := c.span(&c.g.out, &c.out, v)
	return c.out.ids[lo:hi]
}

// OutWeights returns the weights parallel to OutNeighbors.
func (c *Cursor) OutWeights(v graph.VertexID) []float32 {
	return c.weights(&c.g.out, &c.out, v)
}

// InNeighbors returns v's in-neighbours (CSC direction).
func (c *Cursor) InNeighbors(v graph.VertexID) []graph.VertexID {
	lo, hi := c.span(&c.g.in, &c.in, v)
	return c.in.ids[lo:hi]
}

// InWeights returns the weights parallel to InNeighbors.
func (c *Cursor) InWeights(v graph.VertexID) []float32 {
	return c.weights(&c.g.in, &c.in, v)
}

// span ensures v's id block is decoded and returns v's scratch-relative
// edge range.
func (c *Cursor) span(d *dirRef, dc *dirCur, v graph.VertexID) (int, int) {
	g := c.g
	if int(v) >= g.n {
		return 0, 0
	}
	if b := int64(v) >> g.shift; dc.block != b {
		c.load(d, dc, b)
	}
	i := int64(v) - dc.start
	return dc.rel[i], dc.rel[i+1]
}

// weights returns the weights parallel to v's ids, decoding the weight block
// of v's id block unless it is the one already held.
func (c *Cursor) weights(d *dirRef, dc *dirCur, v graph.VertexID) []float32 {
	lo, hi := c.span(d, dc, v)
	if d.wmode == WConst1 {
		if hi-lo > len(c.ones) {
			c.ones = make([]float32, max(hi-lo, 2*len(c.ones)))
			for i := range c.ones {
				c.ones[i] = 1
			}
		}
		return c.ones[:hi-lo]
	}
	if dc.wblock != dc.block {
		c.loadWeights(d, dc)
	}
	return dc.ws[lo:hi]
}

// blockBytes returns bytes [o0,o1) of a section: a sub-slice of the mapping,
// or a pread at file offset pos+o0 into *scratch in reader mode (empty, with
// the error, on a failed read).
func (g *Graph) blockBytes(sec []byte, pos, o0, o1 int64, scratch *[]byte) ([]byte, error) {
	if g.data != nil {
		return sec[o0:o1], nil
	}
	*scratch = grow(*scratch, int(o1-o0))
	if _, err := g.r.ReadAt(*scratch, pos+o0); err != nil {
		return nil, err
	}
	return *scratch, nil
}

// relOffsets fills rel with the edge offsets of vertices [start,
// start+len(rel)) relative to the first, resolving the index width once
// per block instead of once per lookup.
func (g *Graph) relOffsets(d *dirRef, start int64, rel []int) {
	if g.wide {
		raw := d.off[8*start:]
		e0 := int64(binary.LittleEndian.Uint64(raw))
		for i := range rel {
			rel[i] = int(int64(binary.LittleEndian.Uint64(raw[8*i:])) - e0)
		}
		return
	}
	raw := d.off[4*start:]
	e0 := int64(binary.LittleEndian.Uint32(raw))
	for i := range rel {
		rel[i] = int(int64(binary.LittleEndian.Uint32(raw[4*i:])) - e0)
	}
}

// load points dc at the ids of block b of direction d: the graph's kept copy,
// else a decode into a new slice it publishes (a block the graph keeps) or
// into dc's own scratch. Weights are not touched (see weights).
func (c *Cursor) load(d *dirRef, dc *dirCur, b int64) {
	g := c.g
	start := b << g.shift
	nv := int(min(start+int64(1)<<g.shift, int64(g.n)) - start)
	dc.rel = grow(dc.rel, nv+1)
	rel := dc.rel
	g.relOffsets(d, start, rel)
	dc.block, dc.start = b, start
	// Every edge costs at least one data byte, so a block claiming more
	// edges than it has bytes is corrupt; clamping here bounds scratch by
	// the (already size-checked) section length.
	o0, o1 := g.blockOff(d, b), g.blockOff(d, b+1)
	cnt := min(max(rel[nv], 0), int(o1-o0))

	slot := d.ids.slot(b, cnt)
	if slot != nil {
		if p := slot.Load(); p != nil {
			dc.ids = *p
			clampRel(rel, cnt)
			return
		}
	}
	dc.idBlocks++
	raw, _ := g.blockBytes(d.adj, d.adjPos, o0, o1, &dc.buf)
	cnt = min(cnt, len(raw)) // a failed read decodes as an empty block
	clampRel(rel, cnt)
	ids := &dc.own
	if slot != nil {
		ids = new([]graph.VertexID)
	}
	*ids = grow(*ids, cnt)
	// An id ≥ n is corrupt and reads as 0; so does every value after a
	// truncation (Validate reports both).
	decodeBlock(*ids, raw, rel, uint64(g.n))
	if slot != nil && !slot.CompareAndSwap(nil, ids) {
		ids = slot.Load() // another cursor decoded the same bytes first
	}
	dc.ids = *ids
}

// clampRel clamps rel monotone into [0,cnt].
func clampRel(rel []int, cnt int) {
	prev := 0
	for i, r := range rel {
		prev = max(prev, min(r, cnt))
		rel[i] = prev
	}
}

// loadWeights points dc at the weights of its current id block, kept or
// decoded as load does ids.
func (c *Cursor) loadWeights(d *dirRef, dc *dirCur) {
	dc.wblock = dc.block
	slot := d.ws.slot(dc.block, len(dc.ids))
	if slot != nil {
		if p := slot.Load(); p != nil {
			dc.ws = *p
			return
		}
	}
	dc.wBlocks++
	ws := &dc.ownW
	if slot != nil {
		ws = new([]float32)
	}
	*ws = grow(*ws, len(dc.ids))
	c.decodeWeights(d, dc, *ws)
	if slot != nil && !slot.CompareAndSwap(nil, ws) {
		ws = slot.Load()
	}
	dc.ws = *ws
}

// decodeWeights decodes the weights of dc's current id block into ws.
func (c *Cursor) decodeWeights(d *dirRef, dc *dirCur, ws []float32) {
	g := c.g
	// As in load, a failed read leaves raw empty: every weight reads as 1.
	if d.wmode == WRaw {
		o0 := 4 * min(max(g.edgeOff(d, dc.start), 0), g.m) // a corrupt index must not slice past the section
		raw, _ := g.blockBytes(d.w, d.wPos, o0, min(o0+4*int64(len(ws)), d.wLen), &dc.wb)
		for i := range ws {
			if 4*i+4 <= len(raw) {
				ws[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				ws[i] = 1
			}
		}
		return
	}
	raw, _ := g.blockBytes(d.w, d.wPos, g.wBlockOff(d, dc.block), g.wBlockOff(d, dc.block+1), &dc.wb)
	if len(raw) == len(ws) {
		// One byte per edge: unless a byte carries a continuation bit,
		// every weight is a single-byte varint and the bytes are the values.
		var or byte
		for i, b := range raw {
			or |= b
			ws[i] = float32(b)
		}
		if or < 0x80 {
			return
		}
	}
	pos := 0
	for i := range ws {
		x, k := binary.Uvarint(raw[pos:])
		if k <= 0 || x > (1<<32)-1 {
			ws[i] = 1
			continue
		}
		pos += k
		ws[i] = float32(uint32(x))
	}
}

// grow returns b resized to n elements, reallocating only when its capacity
// is too small; the contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Validate decodes every block of both directions and re-checks the whole
// offset index, returning an ErrBadFormat-wrapped error on the first
// defect: non-monotone edge offsets, a control region or data that overruns
// its block, control codes that do not cover the block exactly (or unused
// codes that are not zero), neighbour ids out of range, or a guidance
// section that differs from the default-root guidance regenerated from the
// verified adjacency. Open only checks structure (O(nBlocks)); Validate is
// the deep O(m) check used by the fuzzer, corruption tests and
// `slfe-convert -check`. A wrong LastIter cannot change a min/max result,
// but it can freeze an arith vertex early, so it must not pass.
func (g *Graph) Validate() error {
	for _, s := range []struct {
		name string
		d    *dirRef
	}{{"out", &g.out}, {"in", &g.in}} {
		prev := int64(0)
		for v := int64(0); v <= int64(g.n); v++ {
			o := g.edgeOff(s.d, v)
			if o < prev {
				return badf("%s edge-offset index not monotone at vertex %d (%d < %d)", s.name, v, o, prev)
			}
			prev = o
		}
		if err := g.validateDir(s.name, s.d); err != nil {
			return err
		}
	}
	if !g.guided {
		return nil
	}
	got, _ := rrg.Shared(g, nil)
	want := rrg.Generate(g, rrg.DefaultRoots(g), nil)
	if got.Rounds != want.Rounds || got.MaxLastIter != want.MaxLastIter {
		return badf("guidance section has Rounds %d, MaxLastIter %d; the graph gives %d, %d",
			got.Rounds, got.MaxLastIter, want.Rounds, want.MaxLastIter)
	}
	for v, l := range want.LastIter {
		if got.LastIter[v] != l {
			return badf("guidance section has LastIter[%d] = %d; the graph gives %d", v, got.LastIter[v], l)
		}
	}
	return nil
}

func (g *Graph) validateDir(name string, d *dirRef) error {
	nb := g.numBlocks()
	var buf, wb []byte
	var ids []uint32
	var rel []int
	for b := int64(0); b < nb; b++ {
		start := b << g.shift
		end := start + int64(1)<<g.shift
		if end > int64(g.n) {
			end = int64(g.n)
		}
		o0, o1 := g.blockOff(d, b), g.blockOff(d, b+1)
		raw, err := g.blockBytes(d.adj, d.adjPos, o0, o1, &buf)
		if err != nil {
			return badf("%s block %d: read: %v", name, b, err)
		}
		edges := g.edgeOff(d, end) - g.edgeOff(d, start)
		if nc := (edges + 3) / 4; nc > int64(len(raw)) {
			return badf("%s block %d: %d control bytes for %d edges overrun the %d-byte block", name, b, nc, edges, len(raw))
		}
		// The index is monotone (Validate checked it), so rel runs from 0 to
		// edges as decodeBlock requires.
		ids, rel = grow(ids, int(edges)), grow(rel, int(end-start)+1)
		g.relOffsets(d, start, rel)
		k, used, over := decodeBlock(ids, raw, rel, uint64(g.n))
		if k < len(ids) {
			return badf("%s block %d: data truncated at edge %d of %d", name, b, k, edges)
		}
		if used != len(raw) {
			return badf("%s block %d: control codes cover %d of %d bytes", name, b, used, len(raw))
		}
		if r := edges % 4; r != 0 && raw[edges/4]>>(2*r) != 0 {
			return badf("%s block %d: nonzero codes after the last of %d edges", name, b, edges)
		}
		if over >= 0 {
			v := start
			for rel[v-start+1] <= over {
				v++
			}
			return badf("%s block %d: vertex %d has a neighbour out of range [0,%d)", name, b, v, g.n)
		}
		if d.wmode == WVarint {
			w0, w1 := g.wBlockOff(d, b), g.wBlockOff(d, b+1)
			wraw, err := g.blockBytes(d.w, d.wPos, w0, w1, &wb)
			if err != nil {
				return badf("%s weight block %d: read: %v", name, b, err)
			}
			pos := 0
			for e := int64(0); e < edges; e++ {
				x, k := binary.Uvarint(wraw[pos:])
				if k <= 0 {
					return badf("%s weight block %d: varint truncated at edge %d", name, b, e)
				}
				if x > (1<<32)-1 {
					return badf("%s weight block %d: weight %d exceeds u32", name, b, x)
				}
				pos += k
			}
			if int64(pos) != w1-w0 {
				return badf("%s weight block %d: %d trailing bytes", name, b, w1-w0-int64(pos))
			}
		}
	}
	return nil
}
