package store_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/loader"
	"slfe/internal/metrics"
	"slfe/internal/store"
)

// pkProxy materialises the PK dataset proxy at the given down-scale factor.
func pkProxy(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("PK")
	if err != nil {
		t.Fatal(err)
	}
	return d.Proxy(scale)
}

// storageFiles writes the PK proxy once as the raw binary edge file and
// once as SLFC and returns both paths with the edge count.
func storageFiles(t *testing.T) (rawPath, cmpPath string, edges int64) {
	t.Helper()
	g := pkProxy(t, 1000)
	dir := t.TempDir()
	rawPath = filepath.Join(dir, "pk.slfg")
	cmpPath = filepath.Join(dir, "pk.slfc")
	if err := loader.SaveFile(rawPath, g); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(cmpPath, g); err != nil {
		t.Fatal(err)
	}
	return rawPath, cmpPath, g.NumEdges()
}

func bytesPerEdge(size, m int64) float64 {
	if m == 0 {
		return 0
	}
	return float64(size) / float64(m)
}

// steadyState returns the median per-superstep allocation count and bytes
// over the last half of the run (the supersteps after pool warm-up).
func steadyState(iters []metrics.IterStat) (allocs, bytes int64) {
	if len(iters) == 0 {
		return 0, 0
	}
	tail := iters[len(iters)/2:]
	as := make([]int64, len(tail))
	bs := make([]int64, len(tail))
	for i, s := range tail {
		as[i], bs[i] = s.HeapAllocs, s.HeapBytes
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return as[len(as)/2], bs[len(bs)/2]
}

// v1BytesPerEdge is what format v1 (uvarint adjacency) cost on the PK proxy
// at scale 1000, measured at the parent of PR 23, which replaced it.
const v1BytesPerEdge = 4.63

// TestStorageGuards is the CI regression guard for the compressed storage
// format, on the PK proxy: the SLFC file must cost at most 60% of the raw
// 12 B/edge binary format per edge (it carries BOTH directions plus both
// indexes, so this bound has real slack only because of delta coding with
// byte-length values), and at most 1.10× what v1 cost: v2 trades bytes for
// decode speed, within that bound. Both bounds are on the CSR alone; the
// guidance section (4 B/vertex, no adjacency in it) has its own bound: it
// is exactly 8+4n bytes. The open-speed half of the guard is wall-clock and
// lives in TestStorageOpenSpeed (perf_test.go).
func TestStorageGuards(t *testing.T) {
	rawPath, cmpPath, m := storageFiles(t)
	rawSt, err := os.Stat(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(cmpPath)
	if err != nil {
		t.Fatal(err)
	}
	// The CSR ends where the ten header-listed sections end, 8-aligned.
	csr := int64(112)
	for i := 0; i < 10; i++ {
		csr = (csr+7)&^7 + int64(binary.LittleEndian.Uint64(img[32+8*i:]))
	}
	csr = (csr + 7) &^ 7
	n := int64(binary.LittleEndian.Uint64(img[8:]))
	section := int64(len(img)) - csr
	rawBPE := bytesPerEdge(rawSt.Size(), m)
	cmpBPE := bytesPerEdge(csr, m)
	t.Logf("raw %.2f B/edge, slfc CSR %.3f B/edge (%.0f%% of raw, %.3f× v1); guidance section %d bytes for %d vertices",
		rawBPE, cmpBPE, 100*cmpBPE/rawBPE, cmpBPE/v1BytesPerEdge, section, n)
	if section != 8+4*n {
		t.Errorf("guidance section is %d bytes, want 8+4n = %d", section, 8+4*n)
	}
	if cmpBPE > 0.60*rawBPE {
		t.Errorf("compressed CSR costs %.2f B/edge, more than 60%% of the raw %.2f B/edge", cmpBPE, rawBPE)
	}
	if cmpBPE > 1.10*v1BytesPerEdge {
		t.Errorf("compressed CSR costs %.2f B/edge, more than 1.10× v1's %.2f B/edge", cmpBPE, v1BytesPerEdge)
	}
}

// TestSteadyStateAllocBudgetStore extends the zero-allocation guard
// (apps.TestSteadyStateAllocBudget) to the disk-backed paths: a
// steady-state superstep over the mmap'd SLFC view and over the
// out-of-core reader must stay inside the same budget as the heap CSR —
// per-cursor block scratch is allocated on first touch and reused
// thereafter.
func TestSteadyStateAllocBudgetStore(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const (
		allocBudget = 256
		byteBudget  = 256 << 10
	)
	path := filepath.Join(t.TempDir(), "pk.slfc")
	if err := store.Write(path, pkProxy(t, 4000)); err != nil {
		t.Fatal(err)
	}
	entry, ok := apps.LookupRunnable("pr", "f64")
	if !ok {
		t.Fatal("pr/f64 not registered")
	}
	for name, budget := range map[string]int64{"mmap": 0, "ooc": 1} {
		sg, err := store.OpenBudget(path, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := entry.Build(0, 20).Execute(sg, cluster.Options{
			Nodes: 1, Threads: 2, Stealing: true, RR: true,
			MeasureAllocs: true, Codec: compress.Adaptive{},
		})
		if cerr := sg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs, bytes := steadyState(out.Run.Iters)
		t.Logf("%s: %d iters, steady state %d allocs / %d bytes per superstep",
			name, out.Iterations, allocs, bytes)
		if allocs > allocBudget {
			t.Errorf("%s: steady-state supersteps allocate %d objects, budget %d — the disk-backed hot path regressed",
				name, allocs, allocBudget)
		}
		if bytes > byteBudget {
			t.Errorf("%s: steady-state supersteps allocate %d bytes, budget %d — the disk-backed hot path regressed",
				name, bytes, byteBudget)
		}
	}
}
