package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// sectionWriter tracks the file position of a buffered sequential write
// stream so sections can be aligned and placeholder positions recorded
// for later WriteAt backfill.
type sectionWriter struct {
	w   *bufio.Writer
	pos int64
}

func (s *sectionWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.pos += int64(n)
	return n, err
}

var zeros [4096]byte

func (s *sectionWriter) pad8() error {
	if pad := align8(s.pos) - s.pos; pad > 0 {
		if _, err := s.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	return nil
}

func (s *sectionWriter) writeZeros(n int64) error {
	for n > 0 {
		c := n
		if c > int64(len(zeros)) {
			c = int64(len(zeros))
		}
		if _, err := s.Write(zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// dirEnc streams one direction's adjacency (and weights, diverted to a
// temp file so they land in their own later section) as emit is called
// once per vertex in ascending order. A block's ids are buffered until the
// block ends, because its control bytes precede its data.
type dirEnc struct {
	sw     *sectionWriter
	n      int
	shift  uint
	wmode  byte
	deg    func(v int) int64
	v      int
	adjLen int64
	wLen   int64
	blk    []uint64
	wblk   []uint64
	wtmp   *bufio.Writer
	tmp    [binary.MaxVarintLen64]byte
	vals   []uint32 // the current block's values
	enc    []byte   // the current block's encoding
}

// flush writes the buffered block.
func (e *dirEnc) flush() error {
	e.enc = appendBlock(e.enc[:0], e.vals)
	e.vals = e.vals[:0]
	e.adjLen += int64(len(e.enc))
	_, err := e.sw.Write(e.enc)
	return err
}

func (e *dirEnc) emit(ids []graph.VertexID, ws []float32) error {
	v := e.v
	if v >= e.n {
		return fmt.Errorf("store: emit called for vertex %d of %d", v, e.n)
	}
	e.v++
	if v&(1<<e.shift-1) == 0 {
		if err := e.flush(); err != nil {
			return err
		}
		e.blk = append(e.blk, uint64(e.adjLen))
		if e.wmode == WVarint {
			e.wblk = append(e.wblk, uint64(e.wLen))
		}
	}
	if int64(len(ids)) != e.deg(v) {
		return fmt.Errorf("store: vertex %d emitted %d edges, degree says %d", v, len(ids), e.deg(v))
	}
	prev := uint64(0)
	for i, id := range ids {
		if int(id) >= e.n {
			return fmt.Errorf("store: vertex %d has neighbour %d out of range [0,%d)", v, id, e.n)
		}
		gap := uint64(id)
		if i > 0 {
			if uint64(id) < prev {
				return fmt.Errorf("store: adjacency of vertex %d not sorted", v)
			}
			gap = uint64(id) - prev
		}
		e.vals = append(e.vals, uint32(gap))
		prev = uint64(id)
	}
	switch e.wmode {
	case WVarint:
		for _, w := range ws {
			k := binary.PutUvarint(e.tmp[:], uint64(w))
			if _, err := e.wtmp.Write(e.tmp[:k]); err != nil {
				return err
			}
			e.wLen += int64(k)
		}
	case WRaw:
		for _, w := range ws {
			binary.LittleEndian.PutUint32(e.tmp[:4], math.Float32bits(w))
			if _, err := e.wtmp.Write(e.tmp[:4]); err != nil {
				return err
			}
			e.wLen += 4
		}
	}
	return nil
}

// writeFile writes a complete SLFC image to f. degs supplies per-vertex
// degrees (known before any data is written, so the offset index can lead
// its section group); scan(dir, emit) must call emit exactly once per
// vertex in ascending order with that vertex's sorted adjacency. Sections
// stream sequentially; only the block tables (unknown until the data is
// encoded) and the header are backfilled with WriteAt.
func writeFile(f *os.File, n int, m int64, wmode byte,
	degs [2]func(v int) int64,
	scan func(dir int, emit func(ids []graph.VertexID, ws []float32) error) error) error {
	wide := uint64(m) >= 1<<32
	offW := int64(4)
	if wide {
		offW = 8
	}
	var nb int64
	if n > 0 {
		nb = (int64(n) + 1<<BlockShift - 1) >> BlockShift
	}

	var lens [sectionLens]int64
	var blkPos [2]int64
	var blkTab [2][]uint64

	sw := &sectionWriter{w: bufio.NewWriterSize(f, 1<<20)}
	if err := sw.writeZeros(headerSize); err != nil {
		return err
	}

	var buf [8]byte
	for dir := 0; dir < 2; dir++ {
		base := dir * 5

		// Edge-offset index.
		if err := sw.pad8(); err != nil {
			return err
		}
		cum := int64(0)
		for v := 0; v <= n; v++ {
			if wide {
				binary.LittleEndian.PutUint64(buf[:8], uint64(cum))
				if _, err := sw.Write(buf[:8]); err != nil {
					return err
				}
			} else {
				binary.LittleEndian.PutUint32(buf[:4], uint32(cum))
				if _, err := sw.Write(buf[:4]); err != nil {
					return err
				}
			}
			if v < n {
				cum += degs[dir](v)
			}
		}
		if cum != m {
			return fmt.Errorf("store: direction %d degrees sum to %d, edge count is %d", dir, cum, m)
		}
		lens[base+0] = (int64(n) + 1) * offW

		// Adjacency block table: placeholder, backfilled after encode.
		if err := sw.pad8(); err != nil {
			return err
		}
		blkPos[dir] = sw.pos
		if err := sw.writeZeros((nb + 1) * 8); err != nil {
			return err
		}
		lens[base+1] = (nb + 1) * 8

		// Adjacency data (weights diverted to a temp file).
		if err := sw.pad8(); err != nil {
			return err
		}
		enc := &dirEnc{sw: sw, n: n, shift: BlockShift, wmode: wmode, deg: degs[dir]}
		var wf *os.File
		if wmode != WConst1 {
			var err error
			wf, err = os.CreateTemp(filepath.Dir(f.Name()), ".slfc-w-*")
			if err != nil {
				return err
			}
			defer func() {
				wf.Close()
				os.Remove(wf.Name())
			}()
			enc.wtmp = bufio.NewWriterSize(wf, 1<<20)
		}
		if err := scan(dir, enc.emit); err != nil {
			return err
		}
		if enc.v != n {
			return fmt.Errorf("store: direction %d emitted %d of %d vertices", dir, enc.v, n)
		}
		if err := enc.flush(); err != nil {
			return err
		}
		enc.blk = append(enc.blk, uint64(enc.adjLen))
		blkTab[dir] = enc.blk
		lens[base+2] = enc.adjLen

		// Weight block table (varint mode only; known by now, streamed).
		if wmode == WVarint {
			if err := sw.pad8(); err != nil {
				return err
			}
			enc.wblk = append(enc.wblk, uint64(enc.wLen))
			for _, o := range enc.wblk {
				binary.LittleEndian.PutUint64(buf[:8], o)
				if _, err := sw.Write(buf[:8]); err != nil {
					return err
				}
			}
			lens[base+3] = (nb + 1) * 8
		}

		// Weight data: copy the temp stream into its section.
		if wmode != WConst1 {
			if err := sw.pad8(); err != nil {
				return err
			}
			if err := enc.wtmp.Flush(); err != nil {
				return err
			}
			if _, err := wf.Seek(0, io.SeekStart); err != nil {
				return err
			}
			if _, err := io.Copy(sw, wf); err != nil {
				return err
			}
			lens[base+4] = enc.wLen
		}
	}
	// Pad the file end to the section alignment: the parser places every
	// section — including trailing empty ones — at an 8-byte boundary, so
	// the file must extend to align8(end of last data).
	if err := sw.pad8(); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}

	// Backfill the adjacency block tables.
	tab := make([]byte, (nb+1)*8)
	for dir := 0; dir < 2; dir++ {
		if int64(len(blkTab[dir])) != nb+1 {
			return fmt.Errorf("store: direction %d block table has %d entries, want %d", dir, len(blkTab[dir]), nb+1)
		}
		for i, o := range blkTab[dir] {
			binary.LittleEndian.PutUint64(tab[8*i:], o)
		}
		if _, err := f.WriteAt(tab, blkPos[dir]); err != nil {
			return err
		}
	}
	// Header last: a crash mid-write leaves a file with a zero magic.
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m))
	var flags uint32
	if wide {
		flags |= flagWideOff
	}
	binary.LittleEndian.PutUint32(hdr[24:], flags)
	hdr[28] = BlockShift
	hdr[29] = wmode
	hdr[30] = wmode
	for i, l := range lens {
		binary.LittleEndian.PutUint64(hdr[32+8*i:], uint64(l))
	}
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return nil
}

// appendGuidance ends every write: it generates v's default-root guidance,
// appends it as the guidance section at the (8-aligned) end of f, and only
// then sets flagGuidance, so the header never announces a section that was
// not written.
func appendGuidance(f *os.File, v graph.View) error {
	gd := rrg.Generate(v, rrg.DefaultRoots(v), nil)
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	buf := make([]byte, 8, 8+4*len(gd.LastIter))
	binary.LittleEndian.PutUint32(buf, gd.Rounds)
	binary.LittleEndian.PutUint32(buf[4:], gd.MaxLastIter)
	for _, l := range gd.LastIter {
		buf = binary.LittleEndian.AppendUint32(buf, l)
	}
	if _, err := f.WriteAt(buf, end); err != nil {
		return err
	}
	var flags [4]byte
	if _, err := f.ReadAt(flags[:], 24); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(flags[:], binary.LittleEndian.Uint32(flags[:])|flagGuidance)
	_, err = f.WriteAt(flags[:], 24)
	return err
}

// classifyWeights picks the tightest weight mode for a stream of weights.
type weightClass struct {
	allOne bool
	allInt bool
}

func newWeightClass() weightClass { return weightClass{allOne: true, allInt: true} }

func (c *weightClass) add(w float32) {
	if w != 1 {
		c.allOne = false
	}
	if c.allInt && !(w >= 0 && w < 4294967296 && float32(uint64(w)) == w) {
		c.allInt = false
	}
}

func (c *weightClass) mode() byte {
	switch {
	case c.allOne:
		return WConst1
	case c.allInt:
		return WVarint
	default:
		return WRaw
	}
}

// Write encodes any graph.View (heap graph, another store.Graph, …) as an
// SLFC file at path, guidance section included. The weight mode is chosen
// by a pre-scan: const-1 graphs store no weights at all, integer-weighted
// graphs store varints, everything else raw float32.
func Write(path string, g graph.View) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()

	n := g.NumVertices()
	cur := g.Cursor()
	wc := newWeightClass()
	for v := 0; v < n; v++ {
		for _, w := range cur.OutWeights(graph.VertexID(v)) {
			wc.add(w)
		}
	}
	degs := [2]func(v int) int64{
		func(v int) int64 { return g.OutDegree(graph.VertexID(v)) },
		func(v int) int64 { return g.InDegree(graph.VertexID(v)) },
	}
	err = writeFile(f, n, g.NumEdges(), wc.mode(), degs,
		func(dir int, emit func(ids []graph.VertexID, ws []float32) error) error {
			for v := 0; v < n; v++ {
				id := graph.VertexID(v)
				var ids []graph.VertexID
				var ws []float32
				if dir == 0 {
					ids, ws = cur.OutNeighbors(id), cur.OutWeights(id)
				} else {
					ids, ws = cur.InNeighbors(id), cur.InWeights(id)
				}
				if err := emit(ids, ws); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	return appendGuidance(f, g)
}

// Builder streams edges to an SLFC file without ever materialising the
// edge list in memory: Add spills fixed-size records to a temp file;
// Finish counts degrees in one sequential pass, then builds each
// direction with bounded-memory scatter passes (each pass sorts the edges
// of a contiguous vertex range that fits BufEdges) and streams the
// encoded sections out. Peak memory is O(n) for the offset arrays plus
// the scatter buffer — independent of edge count — so billion-edge graphs
// build on a small-RAM box.
type Builder struct {
	// BufEdges caps the scatter buffer (8 bytes per edge). Larger means
	// fewer passes over the spill file. Default 8M edges (64 MiB).
	BufEdges int

	path  string
	n     int
	m     int64
	spill *os.File
	bw    *bufio.Writer
	wc    weightClass
	rec   [12]byte
	done  bool
}

// NewBuilder starts building an n-vertex SLFC file at path. Call Add for
// every edge, then Finish (or Abort to discard).
func NewBuilder(path string, n int) (*Builder, error) {
	if n < 0 || n > MaxVertices {
		return nil, fmt.Errorf("store: vertex count %d out of range [0,%d]", n, MaxVertices)
	}
	spill, err := os.CreateTemp(filepath.Dir(path), ".slfc-spill-*")
	if err != nil {
		return nil, err
	}
	return &Builder{
		BufEdges: 8 << 20,
		path:     path,
		n:        n,
		spill:    spill,
		bw:       bufio.NewWriterSize(spill, 1<<20),
		wc:       newWeightClass(),
	}, nil
}

// Add appends one directed edge. Order is arbitrary; duplicates are kept
// (parallel edges are legal, as in graph.Build).
func (b *Builder) Add(src, dst graph.VertexID, w float32) error {
	if int(src) >= b.n || int(dst) >= b.n {
		return fmt.Errorf("store: edge (%d,%d) out of range for %d vertices", src, dst, b.n)
	}
	binary.LittleEndian.PutUint32(b.rec[0:], uint32(src))
	binary.LittleEndian.PutUint32(b.rec[4:], uint32(dst))
	binary.LittleEndian.PutUint32(b.rec[8:], math.Float32bits(w))
	if _, err := b.bw.Write(b.rec[:]); err != nil {
		return err
	}
	b.m++
	b.wc.add(w)
	return nil
}

// Abort discards the spill file without writing the output.
func (b *Builder) Abort() {
	if b.spill != nil {
		b.spill.Close()
		os.Remove(b.spill.Name())
		b.spill = nil
	}
}

// scanSpill replays every Add in order.
func (b *Builder) scanSpill(fn func(src, dst uint32, w float32)) error {
	if _, err := b.spill.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(b.spill, 1<<20)
	var rec [12]byte
	for i := int64(0); i < b.m; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("store: spill truncated at edge %d: %w", i, err)
		}
		fn(binary.LittleEndian.Uint32(rec[0:]),
			binary.LittleEndian.Uint32(rec[4:]),
			math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])))
	}
	return nil
}

// Finish writes the SLFC file and removes the spill. The guidance section
// is generated over the file just written, reopened.
func (b *Builder) Finish() (err error) {
	if b.done {
		return fmt.Errorf("store: Finish called twice")
	}
	b.done = true
	defer b.Abort()
	if err := b.bw.Flush(); err != nil {
		return err
	}

	// Pass 1: degree counts → per-direction offset arrays.
	outOff := make([]int64, b.n+1)
	inOff := make([]int64, b.n+1)
	err = b.scanSpill(func(src, dst uint32, _ float32) {
		outOff[src+1]++
		inOff[dst+1]++
	})
	if err != nil {
		return err
	}
	for v := 0; v < b.n; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}

	f, err := os.Create(b.path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(b.path)
		}
	}()

	degs := [2]func(v int) int64{
		func(v int) int64 { return outOff[v+1] - outOff[v] },
		func(v int) int64 { return inOff[v+1] - inOff[v] },
	}
	capEdges := int64(b.BufEdges)
	if capEdges < 1 {
		capEdges = 1
	}
	var keys []uint64
	var curs []int64
	var ids []graph.VertexID
	var ws []float32
	err = writeFile(f, b.n, b.m, b.wc.mode(), degs,
		func(dir int, emit func(ids []graph.VertexID, ws []float32) error) error {
			off := outOff
			if dir == 1 {
				off = inOff
			}
			for vLo := 0; vLo < b.n; {
				// Widest contiguous vertex range whose edges fit the
				// scatter buffer; a single vertex hotter than the buffer
				// gets a dedicated (oversized) pass.
				base := off[vLo]
				vHi := vLo
				for vHi < b.n && off[vHi+1]-base <= capEdges {
					vHi++
				}
				if vHi == vLo {
					vHi = vLo + 1
				}
				cnt := off[vHi] - base
				if int64(cap(keys)) < cnt {
					keys = make([]uint64, cnt)
				}
				keys = keys[:cnt]
				if cap(curs) < vHi-vLo {
					curs = make([]int64, vHi-vLo)
				}
				curs = curs[:vHi-vLo]
				for i := range curs {
					curs[i] = 0
				}
				err := b.scanSpill(func(src, dst uint32, w float32) {
					v, nb := int(src), graph.VertexID(dst)
					if dir == 1 {
						v, nb = int(dst), graph.VertexID(src)
					}
					if v < vLo || v >= vHi {
						return
					}
					slot := off[v] - base + curs[v-vLo]
					curs[v-vLo]++
					keys[slot] = graph.AdjSortKey(nb, w)
				})
				if err != nil {
					return err
				}
				for v := vLo; v < vHi; v++ {
					seg := keys[off[v]-base : off[v+1]-base]
					slices.Sort(seg)
					if int64(cap(ids)) < int64(len(seg)) {
						ids = make([]graph.VertexID, len(seg))
						ws = make([]float32, len(seg))
					}
					ids, ws = ids[:len(seg)], ws[:len(seg)]
					for i, k := range seg {
						ids[i], ws[i] = graph.AdjSortKeyDecode(k)
					}
					if err := emit(ids, ws); err != nil {
						return err
					}
				}
				vLo = vHi
			}
			return nil
		})
	if err != nil {
		return err
	}
	sg, err := Open(b.path)
	if err != nil {
		return err
	}
	defer sg.Close()
	return appendGuidance(f, sg)
}
