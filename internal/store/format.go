// Package store implements SLFC, the compressed on-disk CSR+CSC graph
// format, and a reader that serves the graph straight from the file —
// mmap'd on Linux, pread-streamed everywhere else or when a memory budget
// forces out-of-core operation. store.Graph satisfies graph.View, so the
// superstep engine, guidance generator and partitioner run over a mapped
// file exactly as they do over a heap graph.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "SLFC"
//	4       4     u32 version (currently 2)
//	8       8     u64 vertex count n
//	16      8     u64 edge count m
//	24      4     u32 flags (bit 0: edge-offset entries are u64, not u32;
//	                         bit 1: the guidance section follows)
//	28      1     u8 blockShift (vertices per adjacency block = 1<<shift)
//	29      1     u8 out-weight mode   (0 const-1, 1 varint u32, 2 raw f32)
//	30      1     u8 in-weight mode    (same encoding)
//	31      1     u8 reserved (0)
//	32      80    10 × u64 section byte lengths (see below)
//	112     …     sections, in order, each aligned to 8 bytes
//
// Sections, per direction (out first, then in):
//
//	edge-offset index   (n+1) cumulative edge counts, u32 (u64 if flagged)
//	block-offset table  (nBlocks+1) u64 byte offsets into adjacency data
//	adjacency data      per block of cnt edges: ceil(cnt/4) control bytes,
//	                    then the data bytes (see block.go); the values
//	                    are, per vertex, the first id then the gaps
//	                    (ids ascending; 0 gaps allowed)
//	weight block table  (nBlocks+1) u64, present only for mode 1
//	weight data         mode 1: uvarint u32 per edge; mode 2: raw f32 LE
//
// Degrees come from the edge-offset index, so the adjacency stream needs
// no per-vertex length prefixes; a block is the unit of decode (and of
// pread in out-of-core mode). A mapped or resident graph also keeps every
// decoded block, ids and weights of both directions, for every cursor: at
// most the decoded adjacency the heap CSR+CSC of the same edges holds, and
// under a memory budget what the mapping leaves of it (see Cursor).
//
// When flag bit 1 is set, one trailing section starts at the 8-aligned end
// of the ten above and runs to the end of the file: the default-root
// guidance, u32 Rounds, u32 MaxLastIter, then n × u32 LastIter (rrg).
// The writers always emit it; Open decodes it into the graph's Derived
// slot, so no run over the file generates guidance. A file without the
// bit opens the same way and generates on its first RR run.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// Magic identifies an SLFC file (first four bytes).
const Magic = "SLFC"

// Version is the current format version. Version 1 (uvarint adjacency) is
// no longer read.
const Version = 2

const (
	headerSize  = 112
	sectionLens = 10

	// BlockShift is the writer's block granularity: 64 vertices per
	// adjacency block keeps blocks around a cache page for typical
	// degrees while amortising the block-offset table to ~0.13 bytes
	// per vertex.
	BlockShift = 6

	flagWideOff  = 1 << 0
	flagGuidance = 1 << 1
)

// Weight encoding modes.
const (
	WConst1 byte = 0 // every weight is 1.0; no weight section
	WVarint byte = 1 // integer-valued weights stored as uvarint u32
	WRaw    byte = 2 // raw little-endian float32 per edge
)

// Section indexes into the header's length table.
const (
	secOutOff = iota
	secOutBlk
	secOutAdj
	secOutWBlk
	secOutW
	secInOff
	secInBlk
	secInAdj
	secInWBlk
	secInW
)

// ErrBadFormat is wrapped by every corruption/validation error so callers
// can errors.Is a malformed file regardless of the specific defect.
var ErrBadFormat = errors.New("store: malformed SLFC file")

// MaxVertices bounds vertex counts accepted by the reader, mirroring
// loader.MaxVertices: it caps index allocations in out-of-core mode so a
// corrupt header cannot drive a huge allocation.
const MaxVertices = 1 << 27

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
}

func align8(x int64) int64 { return (x + 7) &^ 7 }

// dirRef holds one direction's section references. In mapped mode the
// byte-slice fields alias the mapping; in reader (out-of-core) mode the
// offset index and block tables are read into heap bytes at open and
// adjacency/weight bytes are pread on demand.
type dirRef struct {
	// Both modes.
	off []byte // edge-offset index (u32 or u64 entries)
	blk []byte // adjacency block-offset table (u64 entries)
	wbk []byte // weight block-offset table (WVarint only)

	// Mapped mode only.
	adj []byte // adjacency blocks
	w   []byte // weight data

	adjPos int64 // file offset of adjacency data (reader mode)
	adjLen int64
	wPos   int64 // file offset of weight data (reader mode)
	wLen   int64

	wmode byte

	// Kept decoded blocks (see cacheHot): none out of core or of const-1.
	ids kept[graph.VertexID]
	ws  kept[float32]
}

// kept holds one section's blocks of at least min values once decoded.
type kept[T any] struct {
	slots []atomic.Pointer[[]T]
	min   int
}

// slot returns block b's slot if the section keeps a block of cnt values.
func (k *kept[T]) slot(b int64, cnt int) *atomic.Pointer[[]T] {
	if k.slots == nil || cnt < k.min {
		return nil
	}
	return &k.slots[b]
}

// pick keeps the blocks of counts values (m at most), most first, while 4 B
// per value fits limit, and returns what is left: negative once one did not
// fit, so later sections keep nothing. Keeping the blocks longer than that
// one stays within limit and needs only min.
func (k *kept[T]) pick(counts []int, m, limit int64) int64 {
	k.slots = make([]atomic.Pointer[[]T], len(counts))
	if 4*m <= limit {
		return limit - 4*m
	}
	for _, c := range slices.Backward(slices.Sorted(slices.Values(counts))) {
		if limit -= 4 * int64(c); limit < 0 {
			k.min = c + 1
			return limit
		}
	}
	return limit
}

// stat counts the section's kept blocks and the bytes of their values.
func (k *kept[T]) stat(blocks int) CacheStat {
	s := CacheStat{Blocks: blocks}
	for i := range k.slots {
		if p := k.slots[i].Load(); p != nil {
			s.Kept, s.Bytes = s.Kept+1, s.Bytes+4*int64(len(*p))
		}
	}
	return s
}

// Graph is a disk-backed graph satisfying graph.View. Index reads
// (NumVertices/NumEdges/degrees) are safe for concurrent use; adjacency
// reads on the Graph itself go through one internal cursor and are
// single-goroutine — concurrent scans must take one Cursor per thread.
type Graph struct {
	n     int
	m     int64
	shift uint
	wide  bool

	guided bool // the file carries the guidance section

	data   []byte // whole file when mapped (or opened from bytes); nil in reader mode
	mapped []byte // the mmap region to release on Close (nil for OpenBytes)
	f      *os.File
	r      io.ReaderAt // reader mode
	size   int64
	ooc    bool // reader mode: adjacency is pread per block, not resident

	out, in dirRef
	hotCap  int64 // cap on the bytes of kept blocks

	def *Cursor // serves the View's own adjacency methods

	derived graph.Derived
}

// Derived returns g's once-slot for a value computed from its topology.
func (g *Graph) Derived() *graph.Derived { return &g.derived }

var (
	_ graph.View   = (*Graph)(nil)
	_ graph.Cursor = (*Cursor)(nil)
)

// Open maps path and returns a disk-backed graph. On Linux the file is
// mmap'd (open cost is header parse plus an O(nBlocks) structural check,
// independent of edge count); elsewhere it falls back to the pread reader.
func Open(path string) (*Graph, error) {
	return OpenBudget(path, 0)
}

// OpenBudget opens path honouring a memory budget in bytes. A budget of 0
// means "fits in memory": mmap where supported. A positive budget smaller
// than the file size forces out-of-core mode — only the offset index and
// block tables are heap-resident, and every adjacency block is pread into
// cursor-owned scratch on demand, so supersteps stream the edge file
// instead of faulting it wholesale into RAM. A positive budget at or above
// the file size caps the decoded blocks the graph keeps (see Cursor) at what
// the mapping leaves of it.
func OpenBudget(path string, budget int64) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if budget > 0 && size > budget {
		g, err := openReader(f, size)
		if err != nil {
			f.Close()
			return nil, err
		}
		g.ooc = true
		return g, nil
	}
	data, err := mmapFile(f, size)
	if err != nil {
		// No mmap on this platform (or mapping failed): pread fallback.
		g, rerr := openReader(f, size)
		if rerr != nil {
			f.Close()
			return nil, rerr
		}
		return g, nil
	}
	keep := int64(math.MaxInt64)
	if budget > 0 {
		keep = budget - size
	}
	g, err := parse(data, nil, size, keep)
	if err != nil {
		munmapFile(data)
		f.Close()
		return nil, err
	}
	g.mapped = data
	g.f = f
	return g, nil
}

// OpenBytes parses an in-memory SLFC image (fuzzing, tests, embedding).
func OpenBytes(data []byte) (*Graph, error) {
	return parse(data, nil, int64(len(data)), math.MaxInt64)
}

func openReader(f *os.File, size int64) (*Graph, error) {
	g, err := parse(nil, f, size, 0)
	if err != nil {
		return nil, err
	}
	g.f = f
	return g, nil
}

// Close releases the mapping and file handle. The Graph (and any Cursor)
// must not be used after Close.
func (g *Graph) Close() error {
	var err error
	g.out.ids.slots, g.out.ws.slots, g.in.ids.slots, g.in.ws.slots = nil, nil, nil, nil
	if g.mapped != nil {
		err = munmapFile(g.mapped)
		g.mapped = nil
		g.data = nil
	}
	if g.f != nil {
		if cerr := g.f.Close(); err == nil {
			err = cerr
		}
		g.f = nil
	}
	return err
}

// OutOfCore reports whether adjacency blocks are streamed from disk per
// access (true) rather than served from a mapping or resident bytes.
func (g *Graph) OutOfCore() bool { return g.ooc }

// parse validates structure and builds the Graph. Exactly one of data
// (resident/mapped bytes) and r (pread source) is non-nil; keep caps the
// bytes of decoded blocks the graph keeps (0 with r: none).
func parse(data []byte, r io.ReaderAt, size, keep int64) (*Graph, error) {
	var hdr [headerSize]byte
	if size < headerSize {
		return nil, badf("file is %d bytes, smaller than the %d-byte header", size, headerSize)
	}
	if data != nil {
		copy(hdr[:], data)
	} else if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, badf("reading header: %v", err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, badf("bad magic %q (want %q)", hdr[0:4], Magic)
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); {
	case v == 1:
		return nil, badf("version 1 files are no longer read: re-convert the graph from its .slfg or edge list with slfe-convert")
	case v != Version:
		return nil, badf("unsupported version %d (want %d)", v, Version)
	}
	n64 := binary.LittleEndian.Uint64(hdr[8:])
	m64 := binary.LittleEndian.Uint64(hdr[16:])
	flags := binary.LittleEndian.Uint32(hdr[24:])
	shift := uint(hdr[28])
	owm, iwm := hdr[29], hdr[30]
	if n64 > MaxVertices {
		return nil, badf("vertex count %d exceeds limit %d", n64, MaxVertices)
	}
	if shift < 1 || shift > 20 {
		return nil, badf("block shift %d out of range [1,20]", shift)
	}
	if owm > WRaw || iwm > WRaw {
		return nil, badf("unknown weight mode out=%d in=%d", owm, iwm)
	}
	wide := flags&flagWideOff != 0
	if !wide && m64 > (1<<32)-1 {
		return nil, badf("edge count %d requires wide offsets but flag is clear", m64)
	}
	g := &Graph{
		n:     int(n64),
		m:     int64(m64),
		shift: shift,
		wide:  wide,
		data:  data,
		r:     r,
		size:  size,
	}
	g.out.wmode = owm
	g.in.wmode = iwm

	var lens [sectionLens]int64
	total := int64(headerSize)
	for i := range lens {
		l := binary.LittleEndian.Uint64(hdr[32+8*i:])
		if l > uint64(size) {
			return nil, badf("section %d length %d exceeds file size %d", i, l, size)
		}
		lens[i] = int64(l)
		total = align8(total) + int64(l)
	}
	gpos := align8(total) // where the guidance section starts
	if g.guided = flags&flagGuidance != 0; g.guided {
		if want := 8 + 4*int64(n64); size-gpos != want {
			return nil, badf("guidance section is %d bytes, want %d", size-gpos, want)
		}
	} else if gpos != size && total != size {
		return nil, badf("section lengths sum to %d, file size is %d", total, size)
	}

	offW := int64(4)
	if wide {
		offW = 8
	}
	nb := g.numBlocks()
	wantOff := (n64 + 1) * uint64(offW)
	wantBlk := uint64(nb+1) * 8
	check := func(name string, got int64, want uint64) error {
		if uint64(got) != want {
			return badf("%s section is %d bytes, want %d", name, got, want)
		}
		return nil
	}
	if err := check("out edge-offset", lens[secOutOff], wantOff); err != nil {
		return nil, err
	}
	if err := check("in edge-offset", lens[secInOff], wantOff); err != nil {
		return nil, err
	}
	if err := check("out block-offset", lens[secOutBlk], wantBlk); err != nil {
		return nil, err
	}
	if err := check("in block-offset", lens[secInBlk], wantBlk); err != nil {
		return nil, err
	}
	for _, s := range []struct {
		name  string
		mode  byte
		wblk  int64
		wdata int64
	}{
		{"out", owm, lens[secOutWBlk], lens[secOutW]},
		{"in", iwm, lens[secInWBlk], lens[secInW]},
	} {
		switch s.mode {
		case WConst1:
			if s.wblk != 0 || s.wdata != 0 {
				return nil, badf("%s weight mode const-1 but weight sections are non-empty", s.name)
			}
		case WVarint:
			if uint64(s.wblk) != wantBlk {
				return nil, badf("%s weight block-offset section is %d bytes, want %d", s.name, s.wblk, wantBlk)
			}
			if uint64(s.wdata) < m64 {
				return nil, badf("%s varint weight section is %d bytes for %d edges", s.name, s.wdata, m64)
			}
		case WRaw:
			if s.wblk != 0 {
				return nil, badf("%s raw weight mode has a block table", s.name)
			}
			if uint64(s.wdata) != 4*m64 {
				return nil, badf("%s raw weight section is %d bytes, want %d", s.name, s.wdata, 4*m64)
			}
		}
	}
	// An edge is at least one data byte, so m bounds every adjacency
	// section — this caps per-block decode scratch before any content
	// is trusted.
	if uint64(lens[secOutAdj]) < m64 || uint64(lens[secInAdj]) < m64 {
		return nil, badf("adjacency sections (%d/%d bytes) cannot hold %d edges",
			lens[secOutAdj], lens[secInAdj], m64)
	}

	pos := int64(headerSize)
	starts := [sectionLens]int64{}
	for i := range lens {
		pos = align8(pos)
		starts[i] = pos
		pos += lens[i]
	}

	load := func(d *dirRef, off, blk, adj, wbk, w int) error {
		d.adjPos, d.adjLen = starts[adj], lens[adj]
		d.wPos, d.wLen = starts[w], lens[w]
		if data != nil {
			d.off = data[starts[off] : starts[off]+lens[off]]
			d.blk = data[starts[blk] : starts[blk]+lens[blk]]
			d.adj = data[starts[adj] : starts[adj]+lens[adj]]
			d.wbk = data[starts[wbk] : starts[wbk]+lens[wbk]]
			d.w = data[starts[w] : starts[w]+lens[w]]
			return nil
		}
		// Reader mode: index + block tables become heap-resident (the
		// "semi-external" model — O(n) index RAM, zero edge RAM).
		read := func(sec int, what string) ([]byte, error) {
			if lens[sec] == 0 {
				return nil, nil
			}
			raw := make([]byte, lens[sec])
			if _, err := r.ReadAt(raw, starts[sec]); err != nil {
				return nil, badf("reading %s: %v", what, err)
			}
			return raw, nil
		}
		var err error
		if d.off, err = read(off, "edge-offset index"); err != nil {
			return err
		}
		if d.blk, err = read(blk, "block-offset table"); err != nil {
			return err
		}
		d.wbk, err = read(wbk, "weight block-offset table")
		return err
	}
	if err := load(&g.out, secOutOff, secOutBlk, secOutAdj, secOutWBlk, secOutW); err != nil {
		return nil, err
	}
	if err := load(&g.in, secInOff, secInBlk, secInAdj, secInWBlk, secInW); err != nil {
		return nil, err
	}

	// Structural checks that make cursor decode panic-free: the offset
	// index must start at 0 and end at m, and block tables must be
	// monotone within their data section. The index interior is checked
	// lazily (decode clamps); Validate() checks it exhaustively.
	for name, d := range map[string]*dirRef{"out": &g.out, "in": &g.in} {
		if first, last := g.edgeOff(d, 0), g.edgeOff(d, int64(g.n)); first != 0 || last != g.m {
			return nil, badf("%s edge-offset index spans [%d,%d], want [0,%d]", name, first, last, g.m)
		}
		prev := int64(0)
		for b := int64(0); b <= nb; b++ {
			o := g.blockOff(d, b)
			if o < prev || o > d.adjLen {
				return nil, badf("%s block-offset table not monotone in [0,%d] at block %d (%d)", name, d.adjLen, b, o)
			}
			prev = o
		}
		if d.wmode == WVarint {
			prev = 0
			for b := int64(0); b <= nb; b++ {
				o := g.wBlockOff(d, b)
				if o < prev || o > d.wLen {
					return nil, badf("%s weight block-offset table not monotone in [0,%d] at block %d (%d)", name, d.wLen, b, o)
				}
				prev = o
			}
		}
	}

	if keep > 0 {
		g.cacheHot(keep)
	}
	if g.guided {
		gd, err := g.readGuidance(gpos)
		if err != nil {
			return nil, err
		}
		g.derived.Get(func() any { return gd })
	}
	g.def = g.newCursor()
	return g, nil
}

// cacheHot picks, from the index and block tables alone, the blocks that keep
// their decoded values within limit bytes: in-ids, in-weights, out-ids and
// out-weights, each section's blocks of most values (edges, at most one per
// byte) first.
func (g *Graph) cacheHot(limit int64) {
	counts := make([]int, g.numBlocks())
	g.hotCap = limit
	for _, d := range []*dirRef{&g.in, &g.out} {
		for b := range counts {
			start := int64(b) << g.shift
			edges := g.edgeOff(d, min(start+int64(1)<<g.shift, int64(g.n))) - g.edgeOff(d, start)
			counts[b] = int(min(max(edges, 0), g.blockOff(d, int64(b)+1)-g.blockOff(d, int64(b))))
		}
		limit = d.ids.pick(counts, g.m, limit)
		if d.wmode != WConst1 {
			limit = d.ws.pick(counts, g.m, limit)
		}
	}
	if limit >= 0 { // every block fits: the cap is the decoded adjacency
		g.hotCap -= limit
	}
}

// CacheStat counts one section's kept blocks, of all, and their bytes.
type CacheStat struct {
	Kept, Blocks int
	Bytes        int64
}

func (s CacheStat) String() string {
	return fmt.Sprintf("%d/%d:%.2fMiB", s.Kept, s.Blocks, float64(s.Bytes)/(1<<20))
}

// Cache reports a graph's kept blocks per direction and section, and the cap
// on their bytes. A const-1 weight section has no blocks to keep.
type Cache struct {
	InIDs, InWeights, OutIDs, OutWeights CacheStat
	Cap                                  int64
}

func (c Cache) String() string {
	return fmt.Sprintf("in-ids=%v in-weights=%v out-ids=%v out-weights=%v cap=%.2fMiB",
		c.InIDs, c.InWeights, c.OutIDs, c.OutWeights, float64(c.Cap)/(1<<20))
}

// InCache reports the blocks kept so far. The cap is the decoded adjacency
// (4 B per id and per weight not const-1), less under a budget, 0 out of
// core. Safe for concurrent use with cursors.
func (g *Graph) InCache() Cache {
	nb := int(g.numBlocks())
	c := Cache{InIDs: g.in.ids.stat(nb), OutIDs: g.out.ids.stat(nb), Cap: g.hotCap}
	if g.in.wmode != WConst1 {
		c.InWeights = g.in.ws.stat(nb)
	}
	if g.out.wmode != WConst1 {
		c.OutWeights = g.out.ws.stat(nb)
	}
	return c
}

// readGuidance decodes the guidance section at pos into the heap, so a
// result holding it stays valid after Close. Level is nil: the engine
// reads only LastIter.
func (g *Graph) readGuidance(pos int64) (*rrg.Guidance, error) {
	var raw []byte
	if g.data != nil {
		raw = g.data[pos:]
	} else {
		raw = make([]byte, 8+4*g.n)
		if _, err := g.r.ReadAt(raw, pos); err != nil {
			return nil, badf("reading guidance section: %v", err)
		}
	}
	gd := &rrg.Guidance{
		Rounds:      binary.LittleEndian.Uint32(raw),
		MaxLastIter: binary.LittleEndian.Uint32(raw[4:]),
	}
	if gd.MaxLastIter > uint32(g.n) {
		return nil, badf("guidance MaxLastIter %d exceeds vertex count %d", gd.MaxLastIter, g.n)
	}
	gd.LastIter = make([]uint32, g.n)
	for i := range gd.LastIter {
		gd.LastIter[i] = binary.LittleEndian.Uint32(raw[8+4*i:])
	}
	return gd, nil
}

func (g *Graph) numBlocks() int64 {
	if g.n == 0 {
		return 0
	}
	return (int64(g.n) + int64(1)<<g.shift - 1) >> g.shift
}

// edgeOff returns the cumulative edge count before vertex v (0 ≤ v ≤ n).
// Safe for concurrent use.
func (g *Graph) edgeOff(d *dirRef, v int64) int64 {
	if g.wide {
		return int64(binary.LittleEndian.Uint64(d.off[8*v:]))
	}
	return int64(binary.LittleEndian.Uint32(d.off[4*v:]))
}

func (g *Graph) blockOff(d *dirRef, b int64) int64 {
	return int64(binary.LittleEndian.Uint64(d.blk[8*b:]))
}

func (g *Graph) wBlockOff(d *dirRef, b int64) int64 {
	return int64(binary.LittleEndian.Uint64(d.wbk[8*b:]))
}

// NumVertices is safe for concurrent use.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges is safe for concurrent use.
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree is safe for concurrent use (index read only).
func (g *Graph) OutDegree(v graph.VertexID) int64 {
	d := g.edgeOff(&g.out, int64(v)+1) - g.edgeOff(&g.out, int64(v))
	if d < 0 {
		return 0
	}
	return d
}

// InDegree is safe for concurrent use (index read only).
func (g *Graph) InDegree(v graph.VertexID) int64 {
	d := g.edgeOff(&g.in, int64(v)+1) - g.edgeOff(&g.in, int64(v))
	if d < 0 {
		return 0
	}
	return d
}

// OutNeighbors serves adjacency through the graph's internal cursor;
// single-goroutine (see graph.View's contract).
func (g *Graph) OutNeighbors(v graph.VertexID) []graph.VertexID { return g.def.OutNeighbors(v) }

// OutWeights serves weights through the graph's internal cursor.
func (g *Graph) OutWeights(v graph.VertexID) []float32 { return g.def.OutWeights(v) }

// InNeighbors serves adjacency through the graph's internal cursor.
func (g *Graph) InNeighbors(v graph.VertexID) []graph.VertexID { return g.def.InNeighbors(v) }

// InWeights serves weights through the graph's internal cursor.
func (g *Graph) InWeights(v graph.VertexID) []float32 { return g.def.InWeights(v) }

func (g *Graph) String() string {
	mode := "mmap"
	if g.data == nil {
		mode = "pread"
		if g.ooc {
			mode = "out-of-core"
		}
	} else if g.mapped == nil {
		mode = "bytes"
	}
	return fmt.Sprintf("store.Graph{n=%d m=%d %s}", g.n, g.m, mode)
}
