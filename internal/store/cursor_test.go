package store

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// weightModeGraphs covers every weight encoding, the varint one twice: all
// weights in one byte (the byte→float32 path) and some in two (the varint
// path). 300 vertices are five 64-vertex blocks, the last one short.
func weightModeGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"const1":  gen.RMAT(300, 2500, gen.DefaultRMAT, 1, 7),
		"varint1": gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 11),
		"varint2": gen.RMAT(300, 2500, gen.DefaultRMAT, 300, 12),
		"rawf32":  fracWeights(gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 13)),
	}
}

// read is one cursor call: a direction, ids or weights, a vertex.
type read struct {
	in, weights bool
	v           int
}

// checkRead performs r on cur and compares the result with the heap graph's.
func checkRead(t *testing.T, want *graph.Graph, cur graph.Cursor, r read) {
	t.Helper()
	id := graph.VertexID(r.v)
	ok := false
	switch {
	case r.in && r.weights:
		ok = sameBits(cur.InWeights(id), want.InWeights(id))
	case r.in:
		ok = slices.Equal(cur.InNeighbors(id), want.InNeighbors(id))
	case r.weights:
		ok = sameBits(cur.OutWeights(id), want.OutWeights(id))
	default:
		ok = slices.Equal(cur.OutNeighbors(id), want.OutNeighbors(id))
	}
	if !ok {
		t.Fatalf("read %+v differs from the heap graph", r)
	}
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestCursorAnyInterleaving: whatever order ids and weights of the two
// directions are asked in, every call returns the heap graph's slice.
func TestCursorAnyInterleaving(t *testing.T) {
	const (
		in, out = true, false
		w, ids  = true, false
	)
	scripts := map[string][]read{
		"weights before ids": {
			{in, w, 5}, {in, ids, 5}, {out, w, 70}, {out, ids, 70}, {in, w, 299}, {in, ids, 299},
		},
		"ids of v, weights of v' in the same block": {
			{in, ids, 3}, {in, w, 7}, {in, ids, 7}, {in, w, 3}, {out, ids, 130}, {out, w, 190}, {out, w, 130},
		},
		"re-reading a vertex after a different block": {
			{in, ids, 5}, {in, w, 5}, {in, ids, 200}, {in, ids, 5}, {in, w, 5}, {in, w, 200},
			{out, w, 64}, {out, ids, 0}, {out, w, 64}, {out, ids, 64},
		},
		"weights of one block around ids of another": {
			{in, w, 5}, {in, ids, 100}, {in, w, 6}, {in, w, 100}, {in, ids, 6},
		},
	}
	var alternating []read
	for v := 56; v < 72; v++ { // straddles the block 0/1 boundary
		alternating = append(alternating, read{in, ids, v}, read{out, w, v}, read{in, w, v}, read{out, ids, v})
	}
	scripts["in/out alternation across a block boundary"] = alternating
	rng := rand.New(rand.NewSource(1))
	var random []read
	for i := 0; i < 20000; i++ {
		random = append(random, read{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(300)})
	}
	scripts["random"] = random

	for mode, heap := range weightModeGraphs() {
		for access, sg := range viewModes(t, heap) {
			for name, script := range scripts {
				t.Run(mode+"/"+access+"/"+name, func(t *testing.T) {
					cur := sg.Cursor()
					for _, r := range script {
						checkRead(t, heap, cur, r)
					}
				})
			}
			// A slice stays valid until the next call for its direction:
			// calls for the other direction leave it alone.
			cur := sg.Cursor()
			ins, iws := cur.InNeighbors(17), cur.InWeights(17)
			for v := 0; v < 300; v++ {
				cur.OutNeighbors(graph.VertexID(v))
				cur.OutWeights(graph.VertexID(v))
			}
			if !slices.Equal(ins, heap.InNeighbors(17)) || !sameBits(iws, heap.InWeights(17)) {
				t.Fatalf("%s/%s: in-slices changed under out-direction calls", mode, access)
			}
		}
	}
}

// cursorSpy hands out the graph's cursors and remembers them, so a test can
// read the decode counters of cursors a callee took.
type cursorSpy struct {
	*Graph
	taken []*Cursor
}

func (s *cursorSpy) Cursor() graph.Cursor {
	c := s.newCursor()
	s.taken = append(s.taken, c)
	return c
}

// TestCursorDecodesOnlyWhatIsRead: a sequential scan decodes every id block
// exactly once; readers that never ask for weights — an ids-only walk,
// rrg.Generate — decode no weight block; a reader that does pays one weight
// block per id block, and none at all when every weight is 1. A block the
// graph keeps is decoded by the first cursor to read it and by no later one,
// in any section: a mapped or resident graph keeps every block, so a second
// walk decodes nothing; under a partial budget only the blocks left out
// decode again; out of core nothing is kept, so every walk decodes every
// block it reads.
func TestCursorDecodesOnlyWhatIsRead(t *testing.T) {
	for mode, heap := range weightModeGraphs() {
		for access, sg := range viewModes(t, heap) {
			nb := sg.numBlocks()
			scan := func(weights bool) *Cursor {
				cur := sg.newCursor()
				for v := 0; v < sg.NumVertices(); v++ {
					id := graph.VertexID(v)
					cur.InNeighbors(id)
					cur.OutNeighbors(id)
					if weights {
						cur.InWeights(id)
						cur.OutWeights(id)
					}
				}
				return cur
			}
			// check compares a walk's decodes: in- and out-id blocks, in-
			// and out-weight blocks.
			check := func(walk string, c *Cursor, want [4]int64) {
				t.Helper()
				if got := [4]int64{c.in.idBlocks, c.out.idBlocks, c.in.wBlocks, c.out.wBlocks}; got != want {
					t.Errorf("%s/%s: %s decoded %v in-id, out-id, in-weight and out-weight blocks; want %v",
						mode, access, walk, got, want)
				}
			}
			left := func(s CacheStat) int64 { return int64(s.Blocks - s.Kept) }
			wb := nb
			if mode == "const1" {
				wb = 0
			}
			check("first ids-only walk", scan(false), [4]int64{nb, nb, 0, 0})
			c := sg.InCache()
			check("second walk, weights too", scan(true), [4]int64{left(c.InIDs), left(c.OutIDs), wb, wb})
			c = sg.InCache()
			check("third walk", scan(true), [4]int64{left(c.InIDs), left(c.OutIDs), left(c.InWeights), left(c.OutWeights)})
			for i, s := range []CacheStat{c.InIDs, c.InWeights, c.OutIDs, c.OutWeights} {
				blocks, ok := int(nb), s.Kept == s.Blocks // mmap and bytes keep every block
				if i%2 == 1 && mode == "const1" {
					blocks = 0 // const-1 weights have no blocks
				}
				switch access {
				case "ooc":
					ok = s.Kept == 0
				case "partial":
					ok = i > 0 || s.Kept > 0 // the in-ids come first
				}
				if !ok || s.Blocks != blocks || s.Bytes > c.Cap {
					t.Errorf("%s/%s: section %d keeps %v under a cap of %d", mode, access, i, s, c.Cap)
				}
			}
		}
		// rrg.Generate, on graphs no cursor has read yet.
		for access, sg := range viewModes(t, heap) {
			spy := &cursorSpy{Graph: sg}
			sched := ws.New(2, true)
			rrg.Generate(spy, rrg.DefaultRoots(spy), sched)
			sched.Close()
			var idBlocks, wBlocks int64
			for _, c := range spy.taken {
				idBlocks += c.in.idBlocks + c.out.idBlocks
				wBlocks += c.in.wBlocks + c.out.wBlocks
			}
			if len(spy.taken) == 0 || idBlocks == 0 || wBlocks != 0 {
				t.Errorf("%s/%s: rrg.Generate took %d cursors and decoded %d id and %d weight blocks, want some, some and 0", mode, access, len(spy.taken), idBlocks, wBlocks)
			}
		}
	}
}

// keptBlock reports whether block b of section i (in-ids, in-weights,
// out-ids, out-weights) is kept decoded.
func keptBlock(g *Graph, i int, b int64) bool {
	d := &g.in
	if i >= 2 {
		d = &g.out
	}
	if i%2 == 0 {
		return d.ids.slots != nil && d.ids.slots[b].Load() != nil
	}
	return d.ws.slots != nil && d.ws.slots[b].Load() != nil
}

// TestCursorPartialCache: under a budget that leaves room for the first k
// sections (in-ids, in-weights, out-ids, out-weights) and half of section k,
// interleaved reads of both directions, ids and weights, through cursors
// that find blocks kept or not, all return the heap graph's slices. The
// sections before k keep every block, section k some but not all — exactly
// those of the most edges —, the sections after it none, and the kept bytes
// never exceed the cap.
func TestCursorPartialCache(t *testing.T) {
	heap := gen.RMAT(2000, 30000, gen.DefaultRMAT, 64, 5)
	img := imageOf(t, heap)
	p := filepath.Join(t.TempDir(), "g.slfc")
	if err := os.WriteFile(p, img, 0o644); err != nil {
		t.Fatal(err)
	}
	sec := 4 * heap.NumEdges() // one section's decoded bytes
	rng := rand.New(rand.NewSource(2))
	var script []read
	for i := 0; i < 20000; i++ {
		script = append(script, read{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(heap.NumVertices())})
	}
	for k := 0; k < 4; k++ {
		sg, err := OpenBudget(p, int64(len(img))+int64(k)*sec+sec/2)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			cur := sg.Cursor()
			for _, r := range script {
				checkRead(t, heap, cur, r)
			}
			for v := 0; v < heap.NumVertices(); v++ { // every block read at least once
				for _, r := range []read{{true, false, v}, {true, true, v}, {false, false, v}, {false, true, v}} {
					checkRead(t, heap, cur, r)
				}
			}
		}
		c := sg.InCache()
		total := int64(0)
		for i, s := range []CacheStat{c.InIDs, c.InWeights, c.OutIDs, c.OutWeights} {
			total += s.Bytes
			if i < k && s.Kept != s.Blocks || i == k && (s.Kept == 0 || s.Kept == s.Blocks) || i > k && s.Kept != 0 {
				t.Errorf("budget for %d.5 sections: section %d keeps %v", k, i, s)
			}
		}
		if total > c.Cap || c.Cap != int64(k)*sec+sec/2 {
			t.Errorf("budget for %d.5 sections: %d bytes kept under a cap of %d, want the cap %d", k, total, c.Cap, int64(k)*sec+sec/2)
		}
		d := &sg.in
		if k >= 2 {
			d = &sg.out
		}
		minKept, maxLeft := int64(math.MaxInt64), int64(-1)
		for b := int64(0); b < sg.numBlocks(); b++ {
			edges := sg.edgeOff(d, min((b+1)<<sg.shift, int64(sg.n))) - sg.edgeOff(d, b<<sg.shift)
			if keptBlock(sg, k, b) {
				minKept = min(minKept, edges)
			} else {
				maxLeft = max(maxLeft, edges)
			}
		}
		if minKept <= maxLeft {
			t.Errorf("budget for %d.5 sections: a kept block has %d edges, a block left out %d", k, minKept, maxLeft)
		}
		sg.Close()
	}
}

// TestCursorCacheWithinBudget: a budget at or above the file's size maps the
// file and keeps decoded blocks only in what the mapping leaves of the
// budget, and never more than the graph's decoded adjacency, so mapped pages
// plus kept blocks never exceed the budget; reads still equal the heap
// graph's.
func TestCursorCacheWithinBudget(t *testing.T) {
	heap := gen.RMAT(2000, 30000, gen.DefaultRMAT, 1, 5)
	p := filepath.Join(t.TempDir(), "g.slfc")
	if err := Write(p, heap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	full := 8 * heap.NumEdges() // ids of both directions; the weights are const-1
	for _, tc := range []struct {
		budget         int64
		wantKept, full bool
	}{{size, false, false}, {size + 1, false, false}, {size + size/2, true, false}, {2 * size, true, false},
		{size + full, true, true}, {2*size + full, true, true}} {
		g, err := OpenBudget(p, tc.budget)
		if err != nil {
			t.Fatalf("OpenBudget(%d): %v", tc.budget, err)
		}
		if g.OutOfCore() {
			t.Fatalf("budget %d ≥ file size %d opened out of core", tc.budget, size)
		}
		cur := g.Cursor()
		for v := 0; v < heap.NumVertices(); v++ {
			checkRead(t, heap, cur, read{in: true, v: v})
			checkRead(t, heap, cur, read{in: false, v: v})
		}
		c := g.InCache()
		kept, bytes := c.InIDs.Kept+c.OutIDs.Kept, c.InIDs.Bytes+c.OutIDs.Bytes
		if want := min(full, tc.budget-size); c.Cap != want || bytes > c.Cap || (kept > 0) != tc.wantKept ||
			tc.full && kept != c.InIDs.Blocks+c.OutIDs.Blocks || c.InWeights.Blocks+c.OutWeights.Blocks != 0 {
			t.Errorf("budget %d over a %d-byte file: %v; want the cap %d, within it, kept=%v, all=%v",
				tc.budget, size, c, want, tc.wantKept, tc.full)
		}
		g.Close()
	}
}

// TestCursorConcurrentFirstTouch: cursors of one graph racing to decode the
// same blocks first, of every section, each scanning in its own order, all
// read the heap graph's adjacency, and so does every block the graph kept.
func TestCursorConcurrentFirstTouch(t *testing.T) {
	for mode, heap := range map[string]*graph.Graph{
		"varint": gen.RMAT(2000, 30000, gen.DefaultRMAT, 64, 21),
		"const1": gen.RMAT(300, 20000, gen.DefaultRMAT, 1, 5),
	} {
		for access, sg := range viewModes(t, heap) {
			n := sg.NumVertices()
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(order []int) {
					defer wg.Done()
					cur := sg.Cursor()
					for _, v := range order {
						id := graph.VertexID(v)
						if !slices.Equal(cur.InNeighbors(id), heap.InNeighbors(id)) ||
							!sameBits(cur.InWeights(id), heap.InWeights(id)) ||
							!slices.Equal(cur.OutNeighbors(id), heap.OutNeighbors(id)) ||
							!sameBits(cur.OutWeights(id), heap.OutWeights(id)) {
							t.Errorf("%s/%s: vertex %d differs from the heap graph", mode, access, v)
							return
						}
					}
				}(rand.New(rand.NewSource(int64(i))).Perm(n))
			}
			wg.Wait()
			// Every kept block is what a fresh decode gives.
			cur := sg.Cursor()
			for v := 0; v < n; v++ {
				for _, r := range []read{{true, false, v}, {true, true, v}, {false, false, v}, {false, true, v}} {
					checkRead(t, heap, cur, r)
				}
			}
		}
	}
}

// referenceBlock decodes block b of one direction the plain way — refDecode,
// then each vertex's running sum — with the cursor's documented degradations
// on corrupt content: a block holds at most one edge per byte (the rest of
// the index's edges read as empty lists), a value that does not decode
// zero-fills the rest of the block's ids, an id ≥ n reads as 0, a weight that
// does not decode (or exceeds u32) reads as 1.
func referenceBlock(g *Graph, d *dirRef, b int64) (ids []graph.VertexID, ws []float32) {
	start := b << g.shift
	end := min(start+int64(1)<<g.shift, int64(g.n))
	raw := d.adj[g.blockOff(d, b):g.blockOff(d, b+1)]
	base := g.edgeOff(d, start)
	cnt := min(g.edgeOff(d, end)-base, int64(len(raw)))
	vals, _ := refDecode(raw, int(cnt))
	ids = make([]graph.VertexID, cnt)
	for v := start; v < end; v++ {
		var id uint64
		for j := min(g.edgeOff(d, v)-base, cnt); j < min(g.edgeOff(d, v+1)-base, int64(len(vals))); j++ {
			id += uint64(vals[j])
			if id < uint64(g.n) {
				ids[j] = graph.VertexID(id)
			}
		}
	}
	if d.wmode != WVarint {
		return ids, nil
	}
	ws = make([]float32, cnt)
	wraw := d.w[g.wBlockOff(d, b):g.wBlockOff(d, b+1)]
	pos := 0
	for i := range ws {
		x, k := binary.Uvarint(wraw[pos:])
		if k <= 0 || x > math.MaxUint32 {
			ws[i] = 1
			continue
		}
		pos += k
		ws[i] = float32(uint32(x))
	}
	return ids, ws
}

// TestCorruptContentMatchesReferenceDecode: on images whose index is intact
// but whose adjacency or weight bytes are damaged, the cursor's fast paths
// return exactly what the plain per-value decode returns — in particular a
// value cut off by the end of its block is never completed from the next
// block's bytes, and blocks the damage did not touch still decode to the
// original graph.
func TestCorruptContentMatchesReferenceDecode(t *testing.T) {
	heap := gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 11)
	base := imageOf(t, heap)
	clean, err := OpenBytes(base)
	if err != nil {
		t.Fatal(err)
	}
	outAdj, outW := secStart(base, secOutAdj), secStart(base, secOutW)
	adjLen := int64(binary.LittleEndian.Uint64(base[32+8*secOutAdj:]))
	wLen := int64(binary.LittleEndian.Uint64(base[32+8*secOutW:]))

	cases := map[string]func(img []byte){
		"untouched": func([]byte) {},
		"control region cut by the block end": func(img []byte) {
			// Block 1 keeps one byte, fewer than its control bytes.
			blk := secStart(img, secOutBlk)
			binary.LittleEndian.PutUint64(img[blk+16:], uint64(clean.blockOff(&clean.out, 1)+1))
		},
		"4-byte codes in the last group of block 0": func(img []byte) { fourByteLastGroup(blockOf(img, false, 0)) },
		"4-byte codes in the last in-block":         func(img []byte) { fourByteLastGroup(blockOf(img, true, lastBlock(img))) },
		"data cut off by the end of the section":    func(img []byte) { fourByteLastGroup(blockOf(img, false, lastBlock(img))) },
		"nonzero unused codes": func(img []byte) {
			raw, cnt, _ := findOutBlock(t, img, oddCount)
			raw[cnt/4] |= 0xff << (2 * (cnt % 4))
		},
		"gap beyond n": func(img []byte) {
			raw, cnt, i := findOutBlock(t, img, wideValue)
			at, l := blockValue(raw, cnt, i)
			raw[at+l-1] = 0xff // now ≥ 0xff00; n is 300
		},
		"one weight byte with a continuation bit":       func(img []byte) { img[outW+3] |= 0x80 },
		"last weight byte of a block with continuation": func(img []byte) { img[outW+clean.wBlockOff(&clean.out, 1)-1] |= 0x80 },
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		sec, length := outAdj, adjLen
		if i%4 == 3 {
			sec, length = outW, wLen
		}
		at, val := sec+rng.Int63n(length), byte(rng.Intn(256))
		cases["random byte "+string(rune('A'+i))] = func(img []byte) { img[at] = val }
	}

	for name, mutate := range cases {
		img := slices.Clone(base)
		mutate(img)
		g, err := OpenBytes(img)
		if err != nil {
			t.Fatalf("%s: content damage must pass open: %v", name, err)
		}
		// Weights first on odd vertices, ids first on even ones.
		cur := g.Cursor()
		for _, dir := range []struct {
			name    string
			d, was  *dirRef // in the damaged image, in the clean one
			ids     func(graph.VertexID) []graph.VertexID
			weights func(graph.VertexID) []float32
			heapIDs func(graph.VertexID) []graph.VertexID
		}{
			{"out", &g.out, &clean.out, cur.OutNeighbors, cur.OutWeights, heap.OutNeighbors},
			{"in", &g.in, &clean.in, cur.InNeighbors, cur.InWeights, heap.InNeighbors},
		} {
			for b := int64(0); b < g.numBlocks(); b++ {
				wantIDs, wantWs := referenceBlock(g, dir.d, b)
				cleanIDs, _ := referenceBlock(clean, dir.was, b)
				damaged := !slices.Equal(wantIDs, cleanIDs)
				base := g.edgeOff(dir.d, b<<g.shift)
				for v := b << g.shift; v < min((b+1)<<g.shift, int64(g.n)); v++ {
					id := graph.VertexID(v)
					var gotIDs []graph.VertexID
					var gotWs []float32
					if v%2 == 1 {
						gotWs, gotIDs = dir.weights(id), dir.ids(id)
					} else {
						gotIDs, gotWs = dir.ids(id), dir.weights(id)
					}
					cnt := int64(len(wantIDs))
					lo, hi := min(g.edgeOff(dir.d, v)-base, cnt), min(g.edgeOff(dir.d, v+1)-base, cnt)
					if !slices.Equal(gotIDs, wantIDs[lo:hi]) {
						t.Fatalf("%s: %s ids of vertex %d: got %v, reference decode %v", name, dir.name, v, gotIDs, wantIDs[lo:hi])
					}
					if wantWs != nil && !sameBits(gotWs, wantWs[lo:hi]) {
						t.Fatalf("%s: %s weights of vertex %d: got %v, reference decode %v", name, dir.name, v, gotWs, wantWs[lo:hi])
					}
					if !damaged && !slices.Equal(gotIDs, dir.heapIDs(id)) {
						t.Fatalf("%s: %s ids of vertex %d in an undamaged block differ from the graph", name, dir.name, v)
					}
				}
			}
		}
	}
}

// TestCorruptBlockStartOffsetRawWeights: raw-f32 weights are located through
// the edge-offset index, so a block whose first offset points past the edge
// count must read clamped weights, not slice outside the weight section.
func TestCorruptBlockStartOffsetRawWeights(t *testing.T) {
	img := imageOf(t, fracWeights(gen.RMAT(300, 2500, gen.DefaultRMAT, 64, 13)))
	binary.LittleEndian.PutUint32(img[secStart(img, secOutOff)+4*128:], math.MaxUint32)
	g, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("interior index damage must pass open: %v", err)
	}
	if g.Validate() == nil {
		t.Fatal("Validate accepted a non-monotone index")
	}
	walkAll(t, g)
	// The kept blocks are sized by what a block decodes, not by what the
	// damaged index claims, so they stay under the cap.
	if c := g.InCache(); c.InIDs.Kept == 0 || c.InIDs.Bytes+c.InWeights.Bytes+c.OutIDs.Bytes+c.OutWeights.Bytes > c.Cap {
		t.Fatalf("kept blocks exceed the cap: %v", c)
	}
}
