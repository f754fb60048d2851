// Package slfe's root benchmarks regenerate each of the paper's tables and
// figures through the experiment harness (one testing.B benchmark per
// artefact) plus micro-benchmarks of the engine primitives the evaluation
// rests on. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use heavily down-scaled dataset proxies so the whole
// suite completes in minutes; use cmd/slfe-bench for full-scale tables.
package slfe_test

import (
	"io"
	"math"
	"testing"

	"slfe/internal/apps"
	"slfe/internal/bench"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/gen"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// benchConfig is the shared, down-scaled experiment configuration.
func benchConfig() bench.Config {
	return bench.Config{Scale: 20000, Nodes: 4, Threads: 1, PRIters: 10, Out: io.Discard}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := bench.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artefact.

func BenchmarkTable1Registry(b *testing.B)             { runExperiment(b, "table1") }
func BenchmarkTable2UpdatesPerVertex(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkTable4Datasets(b *testing.B)             { runExperiment(b, "table4") }
func BenchmarkFigure2ECVertices(b *testing.B)          { runExperiment(b, "fig2") }
func BenchmarkFigure4PullPushBreakdown(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkTable5SystemsComparison(b *testing.B)    { runExperiment(b, "table5") }
func BenchmarkFigure5GeminiImprovement(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFigure6IntraNodeScaling(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFigure7InterNodeScaling(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFigure8PreprocessOverhead(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9ComputationsPerIter(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFigure10Balance(b *testing.B)            { runExperiment(b, "fig10") }

// Ablations beyond the paper's own artefacts.

func BenchmarkAblationDenseThreshold(b *testing.B) { runExperiment(b, "ablation-dense") }
func BenchmarkAblationGuidanceReuse(b *testing.B)  { runExperiment(b, "ablation-guidance") }
func BenchmarkAnalyticsApps(b *testing.B)          { runExperiment(b, "analytics") }
func BenchmarkAblationIncrementalRRG(b *testing.B) { runExperiment(b, "ablation-incremental") }

// Micro-benchmarks of the pieces the experiments compose.

func BenchmarkRRGGeneration(b *testing.B) {
	g := gen.RMAT(1<<15, 1<<18, gen.DefaultRMAT, 1, 3)
	roots := rrg.DefaultRoots(g)
	sched := ws.New(1, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rrg.Generate(g, roots, sched)
	}
}

func BenchmarkSSSPWithRR(b *testing.B)    { benchSSSP(b, true) }
func BenchmarkSSSPWithoutRR(b *testing.B) { benchSSSP(b, false) }

func benchSSSP(b *testing.B, rr bool) {
	g := gen.RMAT(1<<14, 1<<17, gen.DefaultRMAT, 64, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Execute(g, apps.SSSP(0), cluster.Options{Nodes: 2, RR: rr}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankWithRR(b *testing.B)    { benchPR(b, true) }
func BenchmarkPageRankWithoutRR(b *testing.B) { benchPR(b, false) }

func benchPR(b *testing.B, rr bool) {
	g := gen.RMAT(1<<13, 1<<16, gen.DefaultRMAT, 1, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Execute(g, apps.PageRank(20), cluster.Options{Nodes: 2, RR: rr}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCC8Nodes(b *testing.B) {
	g := apps.Symmetrize(gen.RMAT(1<<13, 1<<16, gen.DefaultRMAT, 1, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Execute(g, apps.CC(g), cluster.Options{Nodes: 8, RR: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Push microbenchmark. DenseDivisor=1 keeps SSSP in push mode on every
// non-empty frontier, so the run is dominated by owner-side relaxation and
// the commit fold; -benchmem shows their allocations.
func BenchmarkPush(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, gen.DefaultRMAT, 64, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Execute(g, apps.SSSP(0), cluster.Options{
			Nodes: 2, Threads: 2, DenseDivisor: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Codec microbenchmark: pooled append-encode of a representative delta
// batch, Raw against Adaptive.
func BenchmarkCodecAppendEncode(b *testing.B) {
	ids, vals := codecBatch()
	for _, c := range []compress.Codec{compress.Raw{}, compress.Adaptive{}} {
		b.Run(c.Name(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = c.AppendEncode(buf[:0], ids, vals)
			}
		})
	}
}

// BenchmarkCodecEncode is the allocating form of the same encode.
func BenchmarkCodecEncode(b *testing.B) {
	ids, vals := codecBatch()
	for _, c := range []compress.Codec{compress.Raw{}, compress.Adaptive{}} {
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.Encode(ids, vals)
			}
		})
	}
}

func codecBatch() ([]uint32, []uint64) {
	ids := make([]uint32, 4096)
	vals := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint32(i * 3)
		vals[i] = math.Float64bits(float64(i % 17))
	}
	return ids, vals
}
