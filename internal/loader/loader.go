// Package loader reads and writes graphs ("Loading" stage of the SLFE
// pipeline). Two formats are supported:
//
//   - Text edge lists: one "src dst [weight]" triple per line, '#' or '%'
//     comment lines, whitespace separated. This is the format SNAP and
//     KONECT distribute the paper's datasets in.
//   - A packed binary format (magic "SLFG") holding the vertex count and
//     raw edge triples in CSR order as fixed 12-byte little-endian records,
//     parsed into a heap graph (out-of-core runs read SLFC, not SLFG).
package loader

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"slfe/internal/graph"
	"slfe/internal/store"
)

// Magic identifies the binary graph format.
const Magic = "SLFG"

// MaxVertices bounds the vertex count ReadBinary will accept. The header's
// count field drives large allocations before any edge data is validated,
// so a corrupted or adversarial file could otherwise demand terabytes; the
// default (134M vertices, ~3 GB of offset arrays) covers every dataset in
// the paper at reproduction scale. Raise it explicitly to load larger
// graphs from trusted files.
var MaxVertices uint64 = 1 << 27

// ErrBadFormat reports a malformed input file.
var ErrBadFormat = errors.New("loader: malformed input")

// ReadEdgeList parses a text edge list. Vertex IDs may be arbitrary
// non-negative integers; the vertex count is max(id)+1. A missing weight
// column defaults to 1.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			// Honour the vertex-count header WriteEdgeList emits, so
			// trailing isolated vertices survive a text round trip.
			if rest, ok := strings.CutPrefix(text, vertexHeader); ok {
				n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("%w: line %d: bad vertex header", ErrBadFormat, line)
				}
				if n-1 > maxID {
					maxID = n - 1
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: need at least 2 fields", ErrBadFormat, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad source %q: %v", ErrBadFormat, line, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad destination %q: %v", ErrBadFormat, line, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 32)
			if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("%w: line %d: bad weight %q", ErrBadFormat, line, fields[2])
			}
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: float32(w)})
		if int64(src) > maxID {
			maxID = int64(src)
		}
		if int64(dst) > maxID {
			maxID = int64(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	return graph.Build(int(maxID+1), edges)
}

// vertexHeader is the comment prefix carrying the vertex count in text
// edge lists.
const vertexHeader = "# slfe-vertices:"

// WriteEdgeList writes the graph as a text edge list with weights, preceded
// by a vertex-count header comment.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", vertexHeader, g.NumVertices()); err != nil {
		return err
	}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		ns, ws := g.OutNeighbors(v), g.OutWeights(v)
		for i := range ns {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", v, ns[i], ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteBinary writes the packed binary format: magic, u32 version, u64 n,
// u64 m, then m (u32 src, u32 dst, f32 weight) records, little endian.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Encode 4096 records per Write, the block ReadBinary reads.
	buf := make([]byte, 0, 12*4096)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		ns, ws := g.OutNeighbors(v), g.OutWeights(v)
		for i := range ns {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ns[i]))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(ws[i]))
			if len(buf) == cap(buf) {
				if _, err := bw.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads the packed binary format written by WriteBinary. The
// records must ascend by source, as WriteBinary writes them; a record
// whose source falls is ErrBadFormat, and so are bytes after the m-th
// record.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	size, sized := sizeOf(r)
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	m := binary.LittleEndian.Uint64(hdr[16:])
	if n > math.MaxUint32+1 || n > MaxVertices {
		return nil, fmt.Errorf("%w: vertex count %d too large", ErrBadFormat, n)
	}
	// A corrupt edge count must fail on a short read (cheap), not on a huge
	// up-front make: allocate for the records the input can hold, or, when
	// the reader cannot tell, a capped first guess.
	capHint := min(m, 1<<16)
	if sized {
		capHint = min(m, uint64(max(size-24, 0))/12)
	}
	// Records must ascend by source (CSR order, which WriteBinary writes)
	// and are decoded straight into the CSR's out-arrays. Those grow to
	// capHint only once the first block has ascended, so a file that
	// breaks at once never pays for them.
	off, last := make([]int64, n+1), uint32(0)
	var ids []graph.VertexID
	var w []float32
	// Batched block reads: one ReadFull per 4096 records instead of one
	// per edge, sized in records first so no edge count overflows it. A
	// truncation is reported with the index of the first edge it corrupts.
	buf := make([]byte, 12*4096)
	for i := uint64(0); i < m; {
		nr, err := io.ReadFull(br, buf[:min(m-i, 4096)*12])
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at edge %d: %v", ErrBadFormat, i+uint64(nr)/12, io.ErrUnexpectedEOF)
		}
		var rest []byte
		rest, last, ids, w = decodeCSR(buf[:nr], n, last, off, ids, w)
		if len(rest) >= 12 {
			src, dst := le.Uint32(rest), le.Uint32(rest[4:8])
			if uint64(src) >= n || uint64(dst) >= n {
				return nil, fmt.Errorf("%w: (%d -> %d) with n=%d", graph.ErrVertexOutOfRange, src, dst, n)
			}
			return nil, fmt.Errorf("%w: record %d has source %d after source %d: records must ascend by source",
				ErrBadFormat, i+uint64(nr-len(rest))/12, src, last)
		}
		if i == 0 {
			grow := max(int(capHint)-len(ids), 0)
			ids, w = slices.Grow(ids, grow), slices.Grow(w, grow)
		}
		i += uint64(nr) / 12
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, fmt.Errorf("%w: data after the %d edges the header declares", ErrBadFormat, m)
	case err != io.EOF:
		return nil, fmt.Errorf("loader: %w", err)
	}
	for v := uint64(last) + 1; v <= n; v++ {
		off[v] = int64(len(ids))
	}
	return graph.FromCSR(int(n), off, ids, w), nil
}

var le = binary.LittleEndian

// decodeCSR appends records to a CSR's out-arrays while their sources
// ascend from last and their endpoints are below n, setting off[v] once a
// record from v or a later source arrives. It returns the records from
// the first that breaks either, the latest source and the arrays.
func decodeCSR(recs []byte, n uint64, last uint32, off []int64, ids []graph.VertexID, w []float32) ([]byte, uint32, []graph.VertexID, []float32) {
	k, r := len(ids), len(recs)/12
	ids, w = slices.Grow(ids, r)[:k+r], slices.Grow(w, r)[:k+r]
	for ; len(recs) >= 12 && k < len(ids) && k < len(w); recs = recs[12:] {
		src, dst := le.Uint32(recs), le.Uint32(recs[4:8])
		if src != last {
			if src < last || uint64(src) >= n {
				break
			}
			for v := last + 1; v <= src; v++ {
				off[v] = int64(k)
			}
			last = src
		}
		if uint64(dst) >= n {
			break
		}
		ids[k], w[k] = dst, math.Float32frombits(le.Uint32(recs[8:12]))
		k++
	}
	return recs, last, ids[:k], w[:k]
}

// sizeOf bounds how many bytes r can still deliver, when it can tell:
// readers over memory report their unread length, and a regular file
// holds at most its size.
func sizeOf(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	}
	return 0, false
}

// sniff returns the first four bytes of path ("" on short files).
func sniff(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	head := make([]byte, 4)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return "", err
	}
	if n < 4 {
		return "", nil
	}
	return string(head), nil
}

// LoadFile loads a graph from path into the heap, selecting the format by
// sniffing the magic bytes: SLFC compressed CSR (materialised — use
// OpenView to serve it from disk instead), SLFG packed edges, or a text
// edge list.
func LoadFile(path string) (*graph.Graph, error) {
	head, err := sniff(path)
	if err != nil {
		return nil, err
	}
	if head == store.Magic {
		sg, err := store.Open(path)
		if err != nil {
			return nil, err
		}
		defer sg.Close()
		return graph.Materialize(sg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if head == Magic {
		return ReadBinary(f)
	}
	return ReadEdgeList(f)
}

// OpenView opens path as a graph.View with the cheapest access mode the
// format allows: SLFC files are served straight from disk (mmap'd, or
// streamed out-of-core when 0 < budget < file size) without materialising
// the edge list; other formats are parsed into a heap graph. The returned
// close function releases any mapping (a no-op for heap graphs) and must
// be called after the last access.
func OpenView(path string, budget int64) (graph.View, func() error, error) {
	head, err := sniff(path)
	if err != nil {
		return nil, nil, err
	}
	if head == store.Magic {
		sg, err := store.OpenBudget(path, budget)
		if err != nil {
			return nil, nil, err
		}
		return sg, sg.Close, nil
	}
	g, err := LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return g, func() error { return nil }, nil
}

// SaveFile writes the graph to path, picking the format by extension:
// ".slfc" compressed CSR, ".slfg" packed binary edges, text otherwise.
func SaveFile(path string, g *graph.Graph) error {
	if strings.HasSuffix(path, ".slfc") {
		return store.Write(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".slfg") {
		return WriteBinary(f, g)
	}
	return WriteEdgeList(f, g)
}
