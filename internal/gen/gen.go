// Package gen provides deterministic synthetic graph generators and a
// registry of proxy datasets standing in for the seven real-world graphs of
// the paper's Table 4 (pokec, orkut, livejournal, wiki, delicious,
// s-twitter, friendster) plus the synthetic RMAT graph. The proxies are
// R-MAT graphs with matched average degree and skew, deterministically
// seeded from the dataset name, so every experiment is reproducible.
package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"slfe/internal/graph"
)

// RMATParams are the recursive-matrix quadrant probabilities. The defaults
// (0.57, 0.19, 0.19, 0.05) are the standard Graph500/paper parameters that
// yield power-law degree distributions.
type RMATParams struct {
	A, B, C float64 // D = 1-A-B-C
}

// DefaultRMAT matches the parameters used by the paper's RMAT generator.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// RMATStream generates the same edge sequence as RMAT but hands each edge
// to emit instead of materialising the slice, so billion-edge graphs can
// stream straight into the store builder on a small-RAM box. Deterministic
// for a given seed; bit-identical to RMAT's edges.
//
// The sequence is a contract that seeds every Table 4 proxy. One math/rand
// source seeded with seed yields, per level, one Int63 x (drawn again while
// float64(x)/(1<<63) rounds to 1, as Float64 does); the level takes the
// first of r < A, r < A+B, r < A+B+C that holds for that quotient r, else
// D. When maxWeight > 1 each kept edge then takes one Intn(maxWeight) from
// the same source. Params that can keep no edge of a non-power-of-two n
// (no quadrant A, and no B or no C: a zero RMATParams, a NaN A, A+B+C ≤ 0)
// are an error before anything is drawn.
func RMATStream(n int, m int64, p RMATParams, maxWeight int, seed int64, emit func(src, dst graph.VertexID, w float32) error) error {
	if n <= 0 {
		return nil
	}
	source := rand.NewSource(seed)
	rng := rand.New(source)
	// r < t holds exactly for x below a bound, so a level needs no branch;
	// running maxima keep the first-match order when sums do not increase.
	one := below(1)
	tA := below(p.A)
	tAB := max(tA, below(p.A+p.B))
	tABC := max(tAB, below(p.A+p.B+p.C))
	// Below a power of two, a level that always sets the source bit (no A
	// or B) or always the destination bit (no A or C) keeps no edge: every
	// draw would be rejected forever.
	if m > 0 && n&(n-1) != 0 && (tAB == 0 || tA == 0 && tAB == tABC) {
		return fmt.Errorf("gen: R-MAT params %+v keep no edge of %d vertices: every level sets the source or the destination bit", p, n)
	}
	for done := int64(0); done < m; {
		src, dst := 0, 0
		for bit := 1; bit < n; bit <<= 1 {
			x := source.Int63()
			for x >= one {
				x = source.Int63()
			}
			s := b2i(x >= tAB)
			src |= -s & bit
			dst |= -(b2i(x >= tA) ^ s ^ b2i(x >= tABC)) & bit
		}
		if src >= n || dst >= n {
			continue // rejection keeps the distribution shape
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

// below returns the smallest x in [0, 2^63-1) for which
// float64(x)/(1<<63) < t is false, else math.MaxInt64. The quotient never
// decreases in x, so a binary search finds it for any t, NaN and ±Inf
// included.
func below(t float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RMAT generates an R-MAT graph with n vertices (rounded up to a power of
// two internally, then mapped back into [0,n)) and m directed edges with
// weights drawn uniformly from [1, maxWeight]. The output is deterministic
// for a given seed; params RMATStream refuses give an edgeless graph.
func RMAT(n int, m int64, p RMATParams, maxWeight int, seed int64) *graph.Graph {
	if n <= 0 {
		return graph.MustBuild(0, nil)
	}
	edges := make([]graph.Edge, 0, m)
	_ = RMATStream(n, m, p, maxWeight, seed, func(src, dst graph.VertexID, w float32) error {
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: w})
		return nil
	})
	return graph.MustBuild(n, edges)
}

// UniformStream is the streaming counterpart of Uniform, bit-identical to
// its edge sequence for a given seed.
func UniformStream(n int, m int64, maxWeight int, seed int64, emit func(src, dst graph.VertexID, w float32) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < m; i++ {
		w := float32(1)
		if maxWeight > 1 {
			w = float32(rng.Intn(maxWeight) + 1)
		}
		if err := emit(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), w); err != nil {
			return err
		}
	}
	return nil
}

// Uniform generates an Erdős–Rényi style graph: m directed edges with
// endpoints chosen uniformly at random.
func Uniform(n int, m int64, maxWeight int, seed int64) *graph.Graph {
	edges := make([]graph.Edge, 0, m)
	_ = UniformStream(n, m, maxWeight, seed, func(src, dst graph.VertexID, w float32) error {
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: w})
		return nil
	})
	return graph.MustBuild(n, edges)
}

// Grid generates a rows x cols 4-neighbour grid with bidirectional edges and
// uniformly random weights in [1, maxWeight]. Grids model road networks:
// large diameter, uniform low degree — hundreds of supersteps whose
// frontiers never reach the pull threshold, and a good stress test.
func Grid(rows, cols, maxWeight int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	edges := make([]graph.Edge, 0, int64(4*n))
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	w := func() float32 {
		if maxWeight > 1 {
			return float32(rng.Intn(maxWeight) + 1)
		}
		return 1
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				wt := w()
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r, c+1), Weight: wt},
					graph.Edge{Src: id(r, c+1), Dst: id(r, c), Weight: wt})
			}
			if r+1 < rows {
				wt := w()
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r+1, c), Weight: wt},
					graph.Edge{Src: id(r+1, c), Dst: id(r, c), Weight: wt})
			}
		}
	}
	return graph.MustBuild(n, edges)
}

// Path generates a directed path 0 -> 1 -> ... -> n-1 with unit weights.
// Its RR guidance is maximally informative: lastIter(v) = v+1.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Star generates a star: vertex 0 points at every other vertex.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Clustered generates k dense clusters of size n/k with sparse random
// inter-cluster bridges; useful for connected-components demos.
func Clustered(n, k int, bridges int, seed int64) *graph.Graph {
	if k <= 0 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	size := n / k
	if size == 0 {
		size = 1
	}
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		lo := c * size
		hi := lo + size
		if c == k-1 {
			hi = n
		}
		if hi > n {
			hi = n
		}
		// Ring plus random chords keeps each cluster connected.
		for v := lo; v < hi; v++ {
			next := v + 1
			if next >= hi {
				next = lo
			}
			if next != v {
				edges = append(edges,
					graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(next), Weight: 1},
					graph.Edge{Src: graph.VertexID(next), Dst: graph.VertexID(v), Weight: 1})
			}
		}
		span := hi - lo
		for i := 0; i < span; i++ {
			a := lo + rng.Intn(span)
			b := lo + rng.Intn(span)
			edges = append(edges,
				graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b), Weight: 1},
				graph.Edge{Src: graph.VertexID(b), Dst: graph.VertexID(a), Weight: 1})
		}
	}
	for i := 0; i < bridges; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		edges = append(edges,
			graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b), Weight: 1},
			graph.Edge{Src: graph.VertexID(b), Dst: graph.VertexID(a), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Dataset describes one proxy for a real-world graph from Table 4.
type Dataset struct {
	Name      string // short code used in the paper (PK, OK, ...)
	FullName  string
	VertsFull int     // |V| of the real graph
	EdgesFull int64   // |E| of the real graph
	AvgDeg    float64 // paper-reported average degree
	Kind      string  // Social / Hyperlink / Folksonomy / RMAT
}

// Table4 lists the paper's datasets in its original order.
var Table4 = []Dataset{
	{Name: "PK", FullName: "pokec", VertsFull: 1_600_000, EdgesFull: 30_600_000, AvgDeg: 18.8, Kind: "Social"},
	{Name: "OK", FullName: "orkut", VertsFull: 3_100_000, EdgesFull: 117_200_000, AvgDeg: 38.1, Kind: "Social"},
	{Name: "LJ", FullName: "livejournal", VertsFull: 4_800_000, EdgesFull: 69_000_000, AvgDeg: 14.23, Kind: "Social"},
	{Name: "WK", FullName: "wiki", VertsFull: 12_100_000, EdgesFull: 378_100_000, AvgDeg: 31.1, Kind: "Hyperlink"},
	{Name: "DI", FullName: "delicious", VertsFull: 33_800_000, EdgesFull: 301_200_000, AvgDeg: 8.9, Kind: "Folksonomy"},
	{Name: "ST", FullName: "s-twitter", VertsFull: 11_300_000, EdgesFull: 85_300_000, AvgDeg: 7.5, Kind: "Social"},
	{Name: "FS", FullName: "friendster", VertsFull: 65_600_000, EdgesFull: 1_800_000_000, AvgDeg: 27.5, Kind: "Social"},
}

// RMATDataset is the paper's synthetic scale-out graph (300M vertices, 10B
// edges).
var RMATDataset = Dataset{Name: "RMAT", FullName: "synthetic-rmat", VertsFull: 300_000_000, EdgesFull: 10_000_000_000, AvgDeg: 33.3, Kind: "RMAT"}

// ByName returns the dataset with the given short code.
func ByName(name string) (Dataset, error) {
	if name == RMATDataset.Name {
		return RMATDataset, nil
	}
	for _, d := range Table4 {
		if d.Name == name || d.FullName == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// Proxy materialises a down-scaled stand-in for the dataset: an R-MAT graph
// with |V| = VertsFull/scale and |E| = EdgesFull/scale (minimums applied),
// same average degree, weights in [1,64], deterministic per dataset name.
// scale <= 0 defaults to 100.
func (d Dataset) Proxy(scale int) *graph.Graph {
	n, m := d.ProxySize(scale)
	return RMAT(n, m, DefaultRMAT, 64, d.proxySeed())
}

// ProxySize returns the vertex and edge counts Proxy would use for scale.
func (d Dataset) ProxySize(scale int) (int, int64) {
	if scale <= 0 {
		scale = 100
	}
	n := d.VertsFull / scale
	if n < 64 {
		n = 64
	}
	m := d.EdgesFull / int64(scale)
	if min := int64(4 * n); m < min {
		m = min
	}
	return n, m
}

// ProxyStream streams the exact edge sequence Proxy materialises.
func (d Dataset) ProxyStream(scale int, emit func(src, dst graph.VertexID, w float32) error) error {
	n, m := d.ProxySize(scale)
	return RMATStream(n, m, DefaultRMAT, 64, d.proxySeed(), emit)
}

func (d Dataset) proxySeed() int64 {
	h := fnv.New64a()
	h.Write([]byte(d.FullName))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
