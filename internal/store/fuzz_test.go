package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// imageOf writes g through the production writer and returns the file bytes.
func imageOf(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	p := filepath.Join(tb.TempDir(), "g.slfc")
	if err := Write(p, g); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		tb.Fatalf("ReadFile: %v", err)
	}
	return b
}

// walkAll scans every vertex in both directions through one cursor. On a
// structurally-valid but content-corrupt image this must terminate without
// panicking; decoded ids are clamped into [0,n).
func walkAll(t *testing.T, g *Graph) {
	t.Helper()
	limit := g.NumVertices()
	if limit > 1<<12 {
		limit = 1 << 12
	}
	cur := g.Cursor()
	for v := 0; v < limit; v++ {
		id := graph.VertexID(v)
		if d := g.OutDegree(id); d < 0 {
			t.Fatalf("vertex %d: negative OutDegree %d", v, d)
		}
		if d := g.InDegree(id); d < 0 {
			t.Fatalf("vertex %d: negative InDegree %d", v, d)
		}
		// Weights are decoded lazily: ask for them before the ids on odd
		// vertices, after on even ones.
		var ow, iw int
		if v%2 == 1 {
			ow, iw = len(cur.OutWeights(id)), len(cur.InWeights(id))
		}
		on, in := len(cur.OutNeighbors(id)), len(cur.InNeighbors(id))
		if v%2 == 0 {
			ow, iw = len(cur.OutWeights(id)), len(cur.InWeights(id))
		}
		for dir, pair := range [][2]int{{on, ow}, {in, iw}} {
			if pair[0] != pair[1] {
				t.Fatalf("vertex %d dir %d: %d ids but %d weights", v, dir, pair[0], pair[1])
			}
		}
		for _, u := range cur.OutNeighbors(id) {
			if int(u) >= g.NumVertices() {
				t.Fatalf("vertex %d: out-neighbour %d out of range [0,%d)", v, u, g.NumVertices())
			}
		}
		for _, u := range cur.InNeighbors(id) {
			if int(u) >= g.NumVertices() {
				t.Fatalf("vertex %d: in-neighbour %d out of range [0,%d)", v, u, g.NumVertices())
			}
		}
	}
}

// FuzzSLFC throws arbitrary bytes at the decoder: OpenBytes must either
// reject with an ErrBadFormat-wrapped error or produce a graph whose full
// cursor walk terminates in range — never a panic, never an id >= n.
func FuzzSLFC(f *testing.F) {
	for _, g := range []*graph.Graph{
		graph.MustBuild(0, nil),
		graph.MustBuild(70, nil),
		gen.RMAT(130, 900, gen.DefaultRMAT, 1, 7),                // const-1 weights
		gen.RMAT(130, 900, gen.DefaultRMAT, 16, 11),              // varint weights
		fracWeights(gen.RMAT(100, 600, gen.DefaultRMAT, 16, 13)), // raw f32
	} {
		img := imageOf(f, g)
		if binary.LittleEndian.Uint32(img[24:])&flagGuidance == 0 {
			f.Fatal("seed image carries no guidance section")
		}
		f.Add(img)
	}
	// A flag-less file: the const-1 seed with its section cut off.
	bare := imageOf(f, gen.RMAT(130, 900, gen.DefaultRMAT, 1, 7))
	bare = bare[:len(bare)-(8+4*130)]
	bare[24] &^= flagGuidance
	f.Add(bare)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := OpenBytes(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("open error does not wrap ErrBadFormat: %v", err)
			}
			return
		}
		if verr := g.Validate(); verr != nil && !errors.Is(verr, ErrBadFormat) {
			t.Fatalf("Validate error does not wrap ErrBadFormat: %v", verr)
		}
		walkAll(t, g)
	})
}

// secStart mirrors parse's section placement: the byte offset of section
// idx given the header's length table.
func secStart(img []byte, idx int) int64 {
	pos := int64(headerSize)
	for i := 0; i < idx; i++ {
		pos = align8(pos) + int64(binary.LittleEndian.Uint64(img[32+8*i:]))
	}
	return align8(pos)
}

// blockOf returns block b of one direction of a narrow-offset image: its
// bytes, aliasing img, and its edge count from the index.
func blockOf(img []byte, in bool, b int64) (raw []byte, cnt int) {
	sec := 0
	if in {
		sec = secInOff - secOutOff
	}
	off, blk, adj := secStart(img, secOutOff+sec), secStart(img, secOutBlk+sec), secStart(img, secOutAdj+sec)
	n, shift := int64(binary.LittleEndian.Uint64(img[8:])), img[28]
	edge := func(v int64) int { return int(binary.LittleEndian.Uint32(img[off+4*min(v, n):])) }
	at := func(b int64) int64 { return adj + int64(binary.LittleEndian.Uint64(img[blk+8*b:])) }
	return img[at(b):at(b+1)], edge((b+1)<<shift) - edge(b<<shift)
}

// lastBlock is the index of an image's last block.
func lastBlock(img []byte) int64 {
	return (int64(binary.LittleEndian.Uint64(img[8:])) - 1) >> img[28]
}

// blockValue locates value i of a block of cnt values: the offset of its
// first data byte and its length.
func blockValue(raw []byte, cnt, i int) (at, l int) {
	at = (cnt + 3) / 4
	for j := 0; j < i; j++ {
		at += int(raw[j/4]>>(2*(j%4))&3) + 1
	}
	return at, int(raw[i/4]>>(2*(i%4))&3) + 1
}

// fourByteLastGroup makes a block's last control byte claim four data bytes
// for every value it covers, so the data overruns the block end.
func fourByteLastGroup(raw []byte, cnt int) {
	mask := byte(0xff)
	if r := cnt % 4; r != 0 {
		mask = 1<<(2*r) - 1
	}
	raw[(cnt-1)/4] |= mask
}

// findOutBlock returns the first out-block value that matches — its block,
// the block's count and its index — and fails the test when none does.
func findOutBlock(t *testing.T, img []byte, match func(raw []byte, cnt, i int) bool) (raw []byte, cnt, i int) {
	t.Helper()
	for b := int64(0); b <= lastBlock(img); b++ {
		raw, cnt := blockOf(img, false, b)
		for i := 0; i < cnt; i++ {
			if match(raw, cnt, i) {
				return raw, cnt, i
			}
		}
	}
	t.Fatal("no out-block matches")
	return nil, 0, 0
}

// wideValue finds an out-block value of two bytes or more: setting its top
// byte makes it at least 0xff00.
func wideValue(raw []byte, cnt, i int) bool { _, l := blockValue(raw, cnt, i); return l > 1 }

// oddCount finds an out-block whose count is not a multiple of 4, so its last
// control byte has unused codes.
func oddCount(_ []byte, cnt, _ int) bool { return cnt%4 != 0 }

// TestCorruptionRejected drives targeted defects through the decoder. Each
// mutation must surface as an ErrBadFormat-wrapped error — at open for
// structural damage, at Validate for content damage — and must never panic
// or demand allocations the file size cannot justify.
func TestCorruptionRejected(t *testing.T) {
	base := imageOf(t, gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 11))
	n := int64(binary.LittleEndian.Uint64(base[8:]))
	m := int64(binary.LittleEndian.Uint64(base[16:]))
	if binary.LittleEndian.Uint32(base[24:])&flagWideOff != 0 {
		t.Fatal("test graph unexpectedly uses wide offsets")
	}
	if binary.LittleEndian.Uint32(base[24:])&flagGuidance == 0 {
		t.Fatal("writer did not emit the guidance section")
	}
	// The guidance section follows the ten listed ones.
	gpos := secStart(base, sectionLens)

	cases := []struct {
		name string
		mut  func(img []byte) []byte
		// lateOK: the defect is content-level, allowed to pass open and
		// be caught by Validate instead.
		lateOK bool
		// want: substrings the open or Validate error must contain.
		want []string
	}{
		{name: "empty file", mut: func(img []byte) []byte { return nil }},
		{name: "truncated header", mut: func(img []byte) []byte { return img[:headerSize-1] }},
		{name: "truncated tail", mut: func(img []byte) []byte { return img[:len(img)-5] }},
		{name: "bad magic", mut: func(img []byte) []byte { img[0] ^= 0xff; return img }},
		{name: "bad version", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[4:], 0)
			return img
		}},
		{name: "v1 header", want: []string{"version 1", "slfe-convert"}, mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[4:], 1)
			return img
		}},
		{name: "future version", want: []string{"unsupported version 3"}, mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[4:], Version+1)
			return img
		}},
		{name: "vertex count over limit", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[8:], MaxVertices+1)
			return img
		}},
		{name: "edge count without wide flag", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[16:], 1<<40)
			return img
		}},
		{name: "edge count beyond adjacency bytes", mut: func(img []byte) []byte {
			// Fits u32 and keeps section sums intact, but no adjacency
			// section can hold it at one byte per edge minimum — the
			// check that caps decode scratch.
			binary.LittleEndian.PutUint64(img[16:], uint64(len(img)))
			return img
		}},
		{name: "block shift zero", mut: func(img []byte) []byte { img[28] = 0; return img }},
		{name: "block shift over limit", mut: func(img []byte) []byte { img[28] = 21; return img }},
		{name: "unknown weight mode", mut: func(img []byte) []byte { img[29] = 3; return img }},
		{name: "section length past eof", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[32+8*secOutAdj:], uint64(len(img))*2)
			return img
		}},
		{name: "section sum mismatch", mut: func(img []byte) []byte {
			l := binary.LittleEndian.Uint64(img[32+8*secOutAdj:])
			binary.LittleEndian.PutUint64(img[32+8*secOutAdj:], l+8)
			return img
		}},
		{name: "edge-offset index starts past zero", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[secStart(img, secOutOff):], 1)
			return img
		}},
		{name: "edge-offset index ends short of m", mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[secStart(img, secOutOff)+4*n:], uint32(m-1))
			return img
		}},
		{name: "block offset past section end", mut: func(img []byte) []byte {
			adjLen := binary.LittleEndian.Uint64(img[32+8*secOutAdj:])
			binary.LittleEndian.PutUint64(img[secStart(img, secOutBlk)+8:], adjLen+1000)
			return img
		}},
		{name: "block table not monotone", mut: func(img []byte) []byte {
			blk := secStart(img, secOutBlk)
			second := binary.LittleEndian.Uint64(img[blk+16:])
			binary.LittleEndian.PutUint64(img[blk+8:], second+1)
			binary.LittleEndian.PutUint64(img[blk+16:], second)
			return img
		}},
		{name: "non-monotone edge offsets", lateOK: true, mut: func(img []byte) []byte {
			// Interior spike: first==0 and last==m still hold, so open
			// passes; Validate's monotonicity sweep must object.
			off := secStart(img, secOutOff)
			binary.LittleEndian.PutUint32(img[off+4*(n/2):], uint32(m))
			binary.LittleEndian.PutUint32(img[off+4*(n/2)+4:], 0)
			return img
		}},
		{name: "adjacency garbage", lateOK: true, mut: func(img []byte) []byte {
			adj := secStart(img, secOutAdj)
			for i := int64(0); i < 64; i++ {
				img[adj+i] = 0xff // 4-byte codes, huge values
			}
			return img
		}},
		{name: "weight varint garbage", lateOK: true, mut: func(img []byte) []byte {
			w := secStart(img, secOutW)
			for i := int64(0); i < 32; i++ {
				img[w+i] = 0xff
			}
			return img
		}},
		// Values cut off at the edges of the id decoder's fast path and of the
		// byte-weight path; a "varint" is one variable-length value.
		// TestCorruptContentMatchesReferenceDecode pins the decoded values,
		// these rows that Validate objects and the walk stays in range.
		{name: "varint cut off by the last byte of a block", lateOK: true, mut: func(img []byte) []byte {
			fourByteLastGroup(blockOf(img, false, 0))
			return img
		}},
		{name: "varint cut off two bytes before a block end", lateOK: true, mut: func(img []byte) []byte {
			// Block 0 ends two bytes early; block 1 starts with them.
			blk := secStart(img, secOutBlk)
			binary.LittleEndian.PutUint64(img[blk+8:], binary.LittleEndian.Uint64(img[blk+8:])-2)
			return img
		}},
		{name: "varint cut off by the end of the adjacency section", lateOK: true, mut: func(img []byte) []byte {
			fourByteLastGroup(blockOf(img, false, lastBlock(img)))
			return img
		}},
		{name: "five-byte gap", lateOK: true, mut: func(img []byte) []byte {
			// Values stop at four bytes; the nearest defect is a wide gap
			// pushed far beyond n.
			raw, cnt, i := findOutBlock(t, img, wideValue)
			at, l := blockValue(raw, cnt, i)
			raw[at+l-1] = 0xff
			return img
		}},
		{name: "control region overruns the block", lateOK: true, mut: func(img []byte) []byte {
			// Block 0 keeps one byte, fewer than its control bytes.
			blk := secStart(img, secOutBlk)
			binary.LittleEndian.PutUint64(img[blk+8:], 1)
			return img
		}},
		{name: "control codes short of the block", lateOK: true, mut: func(img []byte) []byte {
			raw, _, i := findOutBlock(t, img, wideValue)
			raw[i/4] -= 1 << (2 * (i % 4)) // one byte shorter: the block has one left over
			return img
		}},
		{name: "nonzero unused control codes", lateOK: true, mut: func(img []byte) []byte {
			raw, cnt, _ := findOutBlock(t, img, oddCount)
			raw[cnt/4] |= 0xff << (2 * (cnt % 4))
			return img
		}},
		{name: "byte-per-edge weight block with a continuation bit", lateOK: true, mut: func(img []byte) []byte {
			img[secStart(img, secOutW)+3] |= 0x80
			return img
		}},
		{name: "guidance section one entry short", want: []string{"guidance section"}, mut: func(img []byte) []byte {
			return img[:len(img)-4]
		}},
		{name: "guidance section one entry too many", want: []string{"guidance section"}, mut: func(img []byte) []byte {
			return append(img, 0, 0, 0, 0)
		}},
		{name: "trailing bytes without the guidance flag", mut: func(img []byte) []byte {
			img[24] &^= flagGuidance
			return img
		}},
		{name: "guidance MaxLastIter beyond n", want: []string{"MaxLastIter"}, mut: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[gpos+4:], uint32(n)+1)
			return img
		}},
		{name: "guidance LastIter entry off by one", lateOK: true, want: []string{"LastIter["}, mut: func(img []byte) []byte {
			// Structurally sound, so open takes it; only regenerating
			// the guidance from the adjacency shows it is wrong.
			binary.LittleEndian.PutUint32(img[gpos+8+4*(n/2):], binary.LittleEndian.Uint32(img[gpos+8+4*(n/2):])+1)
			return img
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.mut(append([]byte(nil), base...))
			g, err := OpenBytes(img)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("open error does not wrap ErrBadFormat: %v", err)
				}
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Fatalf("open error %q does not mention %q", err, w)
					}
				}
				return
			}
			if !tc.lateOK {
				t.Fatalf("open accepted structurally corrupt image: %v", g)
			}
			verr := g.Validate()
			if verr == nil {
				t.Fatal("Validate accepted corrupt content")
			}
			if !errors.Is(verr, ErrBadFormat) {
				t.Fatalf("Validate error does not wrap ErrBadFormat: %v", verr)
			}
			for _, w := range tc.want {
				if !strings.Contains(verr.Error(), w) {
					t.Fatalf("Validate error %q does not mention %q", verr, w)
				}
			}
			walkAll(t, g) // clamped decode: garbage in, bounded ids out
		})
	}
}

// TestCorruptHeaderAllocationBound: a header claiming huge counts against a
// tiny file must be rejected before any count-sized allocation happens (the
// reader path would otherwise make (n+1)-entry index slices).
func TestCorruptHeaderAllocationBound(t *testing.T) {
	img := imageOf(t, graph.MustBuild(10, nil))
	binary.LittleEndian.PutUint64(img[8:], MaxVertices) // n within limit, but sections can't match
	if _, err := OpenBytes(img); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat for oversized vertex count, got %v", err)
	}
	binary.LittleEndian.PutUint64(img[8:], uint64(len(img))) // plausible-looking n, tiny file
	if _, err := OpenBytes(img); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat for mismatched index section, got %v", err)
	}
}
