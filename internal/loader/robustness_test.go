package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// Fuzz-style robustness: loaders fed corrupted or adversarial bytes must
// either return an error or a structurally valid graph — never panic and
// never hand back a graph that fails Validate.

func TestBinaryRandomMutationsNeverPanic(t *testing.T) {
	g := gen.Uniform(64, 256, 8, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		mutated := append([]byte(nil), valid...)
		// 1-4 random byte mutations anywhere in the file.
		for m := 0; m <= rng.Intn(4); m++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		loaded, err := ReadBinary(bytes.NewReader(mutated))
		if err != nil {
			continue // rejected: fine
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("trial %d: accepted a graph failing validation: %v", trial, err)
		}
	}
}

func TestBinaryRandomTruncationsNeverPanic(t *testing.T) {
	g := gen.Uniform(32, 128, 8, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut += 3 {
		loaded, err := ReadBinary(bytes.NewReader(valid[:cut]))
		if err == nil {
			if err := loaded.Validate(); err != nil {
				t.Fatalf("cut %d: invalid graph accepted: %v", cut, err)
			}
		}
	}
}

func TestBinaryRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		blob := make([]byte, rng.Intn(512))
		rng.Read(blob)
		if trial%3 == 0 && len(blob) >= 4 {
			copy(blob, Magic) // sometimes lead with a valid magic
		}
		loaded, err := ReadBinary(bytes.NewReader(blob))
		if err == nil {
			if err := loaded.Validate(); err != nil {
				t.Fatalf("trial %d: invalid graph accepted: %v", trial, err)
			}
		}
	}
}

// FuzzReadBinary: on any bytes ReadBinary never panics and never
// allocates more than the input can hold edges for; when it succeeds, its
// graph validates and is exactly graph.Build over the records a plain
// reference decoder reads — and it succeeds whenever that decoder does.
func FuzzReadBinary(f *testing.F) {
	// The vertex count legitimately drives allocation whatever the file
	// size (isolated vertices cost no bytes), so bound it for the fuzzer.
	defer func(old uint64) { MaxVertices = old }(MaxVertices)
	MaxVertices = 1 << 12
	for _, g := range []*graph.Graph{graph.MustBuild(0, nil), gen.Uniform(8, 24, 4, 1), gen.RMAT(64, 256, gen.DefaultRMAT, 8, 2)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	lying := []byte(Magic + "\x01\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00")
	f.Add(lying) // 2^32-1 edges declared, none present
	shuffled := gen.RMAT(64, 256, gen.DefaultRMAT, 8, 3).Edges(nil)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	f.Add(records(64, shuffled)) // records whose sources do not ascend: refused

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Fixed buffers, a scheduler, offsets for at most MaxVertices
		// vertices, and a few bytes per input byte for the edges.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 256<<10+32*MaxVertices+8*uint64(len(data)); got > limit {
			t.Fatalf("%d-byte input allocated %d bytes, limit %d", len(data), got, limit)
		}
		want, wantErr := referenceReadBinary(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadBinary error %v, reference decoder error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted a graph failing validation: %v", verr)
		}
		if !sameArrays(g, want) {
			t.Fatal("ReadBinary's graph differs from Build over the decoded records")
		}
	})
}

// referenceReadBinary decodes the SLFG layout one field at a time: magic,
// version 1, n <= MaxVertices, m, then exactly m 12-byte records whose
// sources never fall.
func referenceReadBinary(data []byte) (*graph.Graph, error) {
	le := binary.LittleEndian
	if len(data) < 24 || string(data[:4]) != Magic || le.Uint32(data[4:]) != 1 {
		return nil, errors.New("bad header")
	}
	n, m := le.Uint64(data[8:]), le.Uint64(data[16:])
	recs := data[24:]
	if n > MaxVertices || uint64(len(recs))%12 != 0 || uint64(len(recs))/12 != m {
		return nil, errors.New("bad sizes")
	}
	var edges []graph.Edge
	for r := recs; len(r) > 0; r = r[12:] {
		e := graph.Edge{Src: le.Uint32(r), Dst: le.Uint32(r[4:]), Weight: math.Float32frombits(le.Uint32(r[8:]))}
		if len(edges) > 0 && e.Src < edges[len(edges)-1].Src {
			return nil, errors.New("source falls")
		}
		edges = append(edges, e)
	}
	return graph.Build(int(n), edges)
}

// sameArrays compares two graphs' adjacency in both directions, vertex by
// vertex, with weights compared bit for bit.
func sameArrays(a, b *graph.Graph) bool {
	bits := func(w []float32) []uint32 {
		out := make([]uint32, len(w))
		for i, x := range w {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := graph.VertexID(0); int(v) < a.NumVertices(); v++ {
		if !slices.Equal(a.OutNeighbors(v), b.OutNeighbors(v)) || !slices.Equal(a.InNeighbors(v), b.InNeighbors(v)) ||
			!slices.Equal(bits(a.OutWeights(v)), bits(b.OutWeights(v))) || !slices.Equal(bits(a.InWeights(v)), bits(b.InWeights(v))) {
			return false
		}
	}
	return true
}

func TestEdgeListAdversarialLines(t *testing.T) {
	cases := []string{
		"1 2\n3",                        // dangling id
		"1 2 3 4 5\n",                   // too many columns
		"-1 2\n",                        // negative id
		"4294967296 1\n",                // id > uint32
		"a b\n",                         // non-numeric
		"1 2 NaN\n",                     // NaN weight
		"1 2 +Inf\n",                    // infinite weight
		"999999999999999999999999 1\n",  // overflow
		"1\t\t\t2\n# comment\n%also\n1", // mixed separators then dangling
		strings.Repeat("1 ", 100000),    // one huge line
	}
	for i, c := range cases {
		g, err := ReadEdgeList(strings.NewReader(c))
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Fatalf("case %d: accepted invalid graph: %v", i, verr)
			}
		}
	}
}

func TestEdgeListWeightEdgeCases(t *testing.T) {
	// Zero and fractional weights are legal; the graph must round-trip.
	in := "0 1 0\n1 2 0.5\n2 0 1e3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	ws := g.OutWeights(1)
	if len(ws) != 1 || ws[0] != 0.5 {
		t.Fatalf("weights of v1: %v", ws)
	}
}
