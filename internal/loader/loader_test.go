package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment
0 1 2.5
1 2
2 0 7

3 3 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %v", g)
	}
	if w := g.OutWeights(0)[0]; w != 2.5 {
		t.Errorf("weight = %v, want 2.5", w)
	}
	if w := g.OutWeights(1)[0]; w != 1 {
		t.Errorf("default weight = %v, want 1", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                      // too few fields
		"a 1\n",                    // bad src
		"0 b\n",                    // bad dst
		"0 1 nope\n",               // bad weight
		"0 1 -3\n",                 // negative weight
		"0 1 NaN\n",                // NaN weight
		"0 1 +Inf\n",               // infinite weight
		"0 99999999999999999999\n", // overflow
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: error %v is not ErrBadFormat", c, err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 16, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := gen.RMAT(256, 2048, gen.DefaultRMAT, 16, 12)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryCorruption(t *testing.T) {
	g := gen.Uniform(16, 64, 4, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations at various points must all error, never panic.
	for _, cut := range []int{0, 2, 4, 10, 19, 25, len(full) - 5} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, full...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte{}, full...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Bytes after the m-th record — one stray byte, or a second file
	// appended to the first — whether or not the reader knows its size.
	twice := append(append([]byte{}, full...), full...)
	path := filepath.Join(t.TempDir(), "twice.slfg")
	if err := os.WriteFile(path, twice, 0o644); err != nil {
		t.Fatal(err)
	}
	trailing := map[string]func() (*graph.Graph, error){
		"stray byte": func() (*graph.Graph, error) {
			return ReadBinary(bytes.NewReader(append(full[:len(full):len(full)], 0)))
		},
		"sized reader":   func() (*graph.Graph, error) { return ReadBinary(bytes.NewReader(twice)) },
		"unsized reader": func() (*graph.Graph, error) { return ReadBinary(io.MultiReader(bytes.NewReader(twice))) },
		"file":           func() (*graph.Graph, error) { return LoadFile(path) },
	}
	for name, load := range trailing {
		if _, err := load(); !errors.Is(err, ErrBadFormat) {
			t.Errorf("trailing data (%s): got %v, want ErrBadFormat", name, err)
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid(6, 6, 8, 3)

	txt := filepath.Join(dir, "g.txt")
	if err := SaveFile(txt, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)

	bin := filepath.Join(dir, "g.slfg")
	if err := SaveFile(bin, g); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g3)

	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadFile on missing path succeeded")
	}
}

// TestSaveFilePatchedMatchesRebuilt: a version graph.WithEdges patched
// saves, in every format, to the same bytes as the graph Build makes from
// the same edges.
func TestSaveFilePatchedMatchesRebuilt(t *testing.T) {
	built := gen.Uniform(300, 2400, 8, 5)
	edges := built.Edges(nil)
	parent := graph.MustBuild(built.NumVertices(), edges[:len(edges)-4])
	patched, err := graph.WithEdges(parent, edges[len(edges)-4:], built.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 is a source outside the batch (sources ascend in edges), so
	// its list aliases the parent's unless the batch compacted.
	if a, b := parent.OutNeighbors(0), patched.OutNeighbors(0); len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("the batch compacted; the test needs a patched version")
	}
	dir := t.TempDir()
	for _, ext := range []string{".txt", ".slfg", ".slfc"} {
		var files [2][]byte
		for i, g := range []*graph.Graph{built, patched} {
			p := filepath.Join(dir, fmt.Sprintf("g%d%s", i, ext))
			if err := SaveFile(p, g); err != nil {
				t.Fatalf("%s: %v", ext, err)
			}
			if files[i], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: the patched graph saved different bytes", ext)
		}
	}
}

func TestLoadEmptyFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "empty.txt")
	if err := SaveFile(p, graph.MustBuild(0, nil)); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("empty file loaded %d vertices", g.NumVertices())
	}
}

// Property: binary round trips preserve arbitrary random graphs exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		g := gen.Uniform(n, int64(rng.Intn(400)), 32, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		return err == nil && sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ReadBinary parses records whose sources ascend straight into the CSR and
// routes any other order through Build; either way the graph must be
// Build's over the same records, whichever record first breaks the order.
// 2^17 edges make the build run over more than one part on a multi-core
// host.
func TestReadBinaryAnyRecordOrder(t *testing.T) {
	const n = 1 << 12
	csr := gen.RMAT(n, 1<<17, gen.DefaultRMAT, 8, 5).Edges(nil)
	last := len(csr) - 1
	shuffled := slices.Clone(csr)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, edges := range map[string][]graph.Edge{
		"csr order":      csr,
		"shuffled":       shuffled,
		"last first":     append([]graph.Edge{csr[last]}, csr[:last]...),
		"first last":     append(slices.Clone(csr[1:]), csr[0]),
		"one record":     csr[:1],
		"reverse halves": append(slices.Clone(csr[last/2:]), csr[:last/2]...),
	} {
		g, err := ReadBinary(bytes.NewReader(records(n, edges)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameArrays(g, graph.MustBuild(n, edges)) {
			t.Fatalf("%s: ReadBinary's graph differs from Build's", name)
		}
	}
}

// records returns an .slfg file holding edges as they come, in whatever
// order, where WriteBinary writes a graph's edges in CSR order.
func records(n int, edges []graph.Edge) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32([]byte(Magic), 1)
	buf = le.AppendUint64(buf, uint64(n))
	buf = le.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = le.AppendUint32(buf, e.Src)
		buf = le.AppendUint32(buf, e.Dst)
		buf = le.AppendUint32(buf, math.Float32bits(e.Weight))
	}
	return buf
}

// BenchmarkLoadBinary loads R-MAT .slfg files from disk into a heap graph:
// records in CSR order, as WriteBinary writes them, and at G-batch's size
// (2^17 vertices, 2^21 edges) also in generator order.
func BenchmarkLoadBinary(b *testing.B) {
	dir := b.TempDir()
	var rmat []graph.Edge
	if err := gen.RMATStream(1<<17, 1<<21, gen.DefaultRMAT, 64, 1, func(s, d graph.VertexID, w float32) error {
		rmat = append(rmat, graph.Edge{Src: s, Dst: d, Weight: w})
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		write func(path string) error
	}{
		{"csr-order-2^20", func(path string) error { return SaveFile(path, gen.RMAT(1<<16, 1<<20, gen.DefaultRMAT, 64, 1)) }},
		{"gen-order-2^21", func(path string) error { return os.WriteFile(path, records(1<<17, rmat), 0o644) }},
		{"csr-order-2^21", func(path string) error { return SaveFile(path, graph.MustBuild(1<<17, rmat)) }},
	} {
		path := filepath.Join(dir, in.name+".slfg")
		if err := in.write(path); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			for b.Loop() {
				if _, err := LoadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := graph.VertexID(0); int(v) < a.NumVertices(); v++ {
		an, aw := a.OutNeighbors(v), a.OutWeights(v)
		bn, bw := b.OutNeighbors(v), b.OutWeights(v)
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i] != bn[i] || aw[i] != bw[i] {
				return false
			}
		}
	}
	return true
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if !sameGraph(a, b) {
		t.Fatalf("graphs differ: %v vs %v", a, b)
	}
}
