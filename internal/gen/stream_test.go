package gen

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"slfe/internal/graph"
)

// rmatReference is RMATStream's original loop: one Float64 and a
// four-way switch per level. RMATStream must emit exactly its sequence.
func rmatReference(n int, m int64, p RMATParams, maxWeight int, seed int64, emit func(src, dst graph.VertexID, w float32) error) error {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	for done := int64(0); done < m; {
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < p.A:
			case r < p.A+p.B:
				dst |= 1 << l
			case r < p.A+p.B+p.C:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		if src >= n || dst >= n {
			continue
		}
		w := float32(1)
		if maxWeight > 1 {
			w = float32(rng.Intn(maxWeight) + 1)
		}
		if err := emit(graph.VertexID(src), graph.VertexID(dst), w); err != nil {
			return err
		}
		done++
	}
	return nil
}

type streamFunc func(n int, m int64, p RMATParams, maxWeight int, seed int64, emit func(src, dst graph.VertexID, w float32) error) error

var streams = []struct {
	name string
	f    streamFunc
}{{"RMATStream", RMATStream}, {"reference", rmatReference}}

func collect(t testing.TB, f streamFunc, n int, m int64, p RMATParams, maxWeight int, seed int64) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if err := f(n, m, p, maxWeight, seed, func(src, dst graph.VertexID, w float32) error {
		out = append(out, graph.Edge{Src: src, Dst: dst, Weight: w})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameStream(t testing.TB, n int, m int64, p RMATParams, maxWeight int, seed int64) {
	t.Helper()
	want := collect(t, rmatReference, n, m, p, maxWeight, seed)
	got := collect(t, RMATStream, n, m, p, maxWeight, seed)
	if len(got) != len(want) {
		t.Fatalf("n=%d m=%d %+v maxw=%d seed=%d: %d edges, reference %d", n, m, p, maxWeight, seed, len(got), len(want))
	}
	for i := range want {
		// Weights compare by bits: the stream must match exactly, not numerically.
		if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst ||
			math.Float32bits(got[i].Weight) != math.Float32bits(want[i].Weight) {
			t.Fatalf("n=%d m=%d %+v maxw=%d seed=%d: edge %d = %v, reference %v", n, m, p, maxWeight, seed, i, got[i], want[i])
		}
	}
}

func TestRMATStreamMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		n         int
		m         int64
		p         RMATParams
		maxWeight int
	}{
		{"default", 1024, 8192, DefaultRMAT, 64},
		{"non-power-of-two", 1000, 5000, DefaultRMAT, 100},
		{"single-vertex", 1, 100, DefaultRMAT, 64},
		{"unit-weight", 4096, 8192, DefaultRMAT, 1},
		{"max-int31-weight", 777, 4096, DefaultRMAT, math.MaxInt32},
		{"zero-A", 512, 4096, RMATParams{A: 0, B: 0.5, C: 0.25}, 64},
		{"ABC-at-least-one", 512, 4096, RMATParams{A: 0.5, B: 0.3, C: 0.3}, 64},
		{"non-monotone", 512, 4096, RMATParams{A: 0.6, B: -0.4, C: 0.5}, 64},
		{"negative-A", 300, 2048, RMATParams{A: -0.1, B: 0.6, C: 0.2}, 64},
		{"NaN-A", 256, 2048, RMATParams{A: nan, B: 0.3, C: 0.3}, 64},
		{"NaN-B", 300, 2048, RMATParams{A: 0.3, B: nan, C: 0.3}, 64},
		{"+Inf-C", 256, 2048, RMATParams{A: 0.3, B: 0.2, C: inf}, 64},
		{"-Inf-A", 256, 2048, RMATParams{A: -inf, B: 0.5, C: 0.2}, 64},
		{"Inf-minus-Inf", 256, 2048, RMATParams{A: inf, B: -inf, C: 0.2}, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				requireSameStream(t, c.n, c.m, c.p, c.maxWeight, seed)
			}
		})
	}
}

// TestBelow pins each bound at the exact x where r < t turns false: random
// draws almost never land there, so the stream tests cannot.
func TestBelow(t *testing.T) {
	r := func(x int64) float64 { return float64(x) / (1 << 63) }
	for _, th := range []float64{0.57, 0.76, 0.95, 0.5, 1, 1e-300, 0, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := below(th)
		if b < math.MaxInt64 && r(b) < th {
			t.Errorf("below(%v) = %d, but r(%d) < %v", th, b, b, th)
		}
		if b > 0 && !(r(b-1) < th) {
			t.Errorf("below(%v) = %d, but r(%d) < %v is false", th, b, b-1, th)
		}
	}
	if one := below(1); r(one) != 1 {
		t.Errorf("below(1) = %d maps to %v, not Float64's resampled 1.0", one, r(one))
	}
}

func FuzzRMATStreamMatchesReference(f *testing.F) {
	f.Add(uint16(1024), uint16(4096), 0.57, 0.19, 0.19, 64, int64(1))
	f.Add(uint16(1000), uint16(100), 0.0, 0.5, 0.5, 1, int64(-7))
	f.Add(uint16(1), uint16(10), math.NaN(), math.Inf(1), -0.5, 100, int64(3))
	f.Add(uint16(1000), uint16(10), 0.0, 0.0, 0.0, 64, int64(4))
	f.Fuzz(func(t *testing.T, n, m uint16, a, b, c float64, maxWeight int, seed int64) {
		if n > 4096 || m > 4096 {
			return
		}
		if maxWeight > math.MaxInt32 {
			maxWeight = math.MaxInt32
		}
		p := RMATParams{A: a, B: b, C: c}
		if n&(n-1) != 0 && m > 0 {
			if keepsNoEdge(p) {
				// The reference would reject forever; RMATStream refuses.
				if err := RMATStream(int(n), int64(m), p, maxWeight, seed, failOnEmit(t)); err == nil {
					t.Fatalf("n=%d %+v: no error for params that keep no edge", n, p)
				}
				return
			}
			// Below a power of two, an edge whose top level lands in
			// quadrant A is always kept; without that floor a kept edge can
			// take a near-endless run of rejections in both loops.
			if !(a >= 1.0/64) {
				return
			}
		}
		requireSameStream(t, int(n), int64(m), p, maxWeight, seed)
	})
}

// keepsNoEdge reports whether no level can leave the source bit clear (no
// A or B) or none the destination bit (no A or C), read through the same
// bounds as the draws.
func keepsNoEdge(p RMATParams) bool {
	tA := below(p.A)
	tAB := max(tA, below(p.A+p.B))
	tABC := max(tAB, below(p.A+p.B+p.C))
	return tAB == 0 || tA == 0 && tAB == tABC
}

func failOnEmit(t *testing.T) func(src, dst graph.VertexID, w float32) error {
	return func(src, dst graph.VertexID, w float32) error {
		t.Fatalf("emitted (%d, %d, %v) for params that keep no edge", src, dst, w)
		return nil
	}
}

// Params that keep no edge below a power of two are refused before a draw
// (the loop would otherwise reject every edge forever); at a power of two
// every edge is (n-1, n-1) and the stream still matches the reference, and
// m = 0 draws nothing and is no error.
func TestRMATStreamRefusesParamsThatKeepNoEdge(t *testing.T) {
	for _, p := range []RMATParams{
		{},
		{A: math.NaN(), B: 0.3, C: 0.3},
		{A: -0.5, B: 0.2, C: 0.1},
		{C: 0.5},
		{B: 0.5},
	} {
		if !keepsNoEdge(p) {
			t.Fatalf("%+v: keepsNoEdge is false", p)
		}
		if err := RMATStream(1000, 10, p, 64, 1, failOnEmit(t)); err == nil {
			t.Errorf("%+v: no error below a power of two", p)
		}
		if err := RMATStream(1000, 0, p, 64, 1, failOnEmit(t)); err != nil {
			t.Errorf("%+v: m=0 returned %v", p, err)
		}
		requireSameStream(t, 1024, 100, p, 64, 1)
	}
	for _, p := range []RMATParams{DefaultRMAT, {B: 0.5, C: 0.5}, {A: 1e-300}} {
		if keepsNoEdge(p) {
			t.Errorf("%+v: keepsNoEdge is true, but some level leaves both bits clear", p)
		}
	}
}

var errEnough = errors.New("enough edges")

// streamChecksum is FNV-64a over the little-endian (src, dst, weight bits)
// of the first k edges f emits. Stopping early also exercises emit's error
// return.
func streamChecksum(t *testing.T, f streamFunc, n int, m int64, seed int64, k int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var rec [12]byte
	seen := 0
	err := f(n, m, DefaultRMAT, 64, seed, func(src, dst graph.VertexID, w float32) error {
		binary.LittleEndian.PutUint32(rec[0:], uint32(src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(dst))
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(w))
		h.Write(rec[:])
		if seen++; seen == k {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("stream ended after %d edges (err %v), want %d", seen, err, k)
	}
	return h.Sum64()
}

// TestRMATStreamPinned pins the opening edges of the two benchmark graphs
// (weights in [1,64]), so neither the generator nor the reference can
// drift.
func TestRMATStreamPinned(t *testing.T) {
	cases := []struct {
		name       string
		logV, logE uint
		seed       int64
		want       uint64
	}{
		{"G-batch", 17, 21, 1, 0x59142a565fb6b38a},
		{"G-serve", 16, 20, 2, 0x5cea8d74ba104b2f},
	}
	for _, c := range cases {
		for _, f := range streams {
			if got := streamChecksum(t, f.f, 1<<c.logV, 1<<c.logE, c.seed, 10_000); got != c.want {
				t.Errorf("%s %s: checksum %#x, want %#x", c.name, f.name, got, c.want)
			}
		}
	}
}

func BenchmarkRMATStream(b *testing.B) {
	for _, f := range streams {
		b.Run(f.name, func(b *testing.B) {
			for b.Loop() {
				_ = f.f(1<<17, 1<<18, DefaultRMAT, 64, 1, func(graph.VertexID, graph.VertexID, float32) error { return nil })
			}
			b.ReportMetric(float64(b.N)*(1<<18)/1e6/b.Elapsed().Seconds(), "Medges/s")
		})
	}
}
