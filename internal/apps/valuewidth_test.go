package apps

import (
	"math"
	"testing"

	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// valuewidthRun executes 30 PageRank iterations in one value domain on a
// three-rank in-process cluster with the adaptive codec at the domain's
// width, and returns the outcome plus its total delta-sync bytes.
func valuewidthRun(t *testing.T, g *graph.Graph, domain string) (*Outcome, int64) {
	t.Helper()
	entry, ok := LookupRunnable("pr", domain)
	if !ok {
		t.Fatalf("no registry entry for (pr, %s)", domain)
	}
	out, err := entry.Build(0, 30).Execute(g, cluster.Options{
		Nodes: 3, Threads: 2, RR: true,
		Codec: compress.Adaptive{W: domWidth(domain)},
	})
	if err != nil {
		t.Fatalf("pr/%s: %v", domain, err)
	}
	return out, syncTraffic(metrics.Merge(out.PerWorker))
}

// syncTraffic totals a run's delta-sync bytes: the per-superstep sync
// traffic, which includes streamed bytes.
func syncTraffic(m *metrics.Run) int64 {
	var total int64
	for _, s := range m.Iters {
		total += s.SyncBytes
	}
	return total
}

// valuesMatch verifies f32 values projected to float64 against the f64
// oracle within relative 1e-3 (float rounding is the expected difference).
func valuesMatch(got, ref []float64) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		g, r := got[i], ref[i]
		if math.IsInf(g, 1) != math.IsInf(r, 1) {
			return false
		}
		if math.IsInf(r, 1) {
			continue
		}
		if diff := math.Abs(g - r); diff > 1e-3*math.Max(1, math.Max(math.Abs(g), math.Abs(r))) {
			return false
		}
	}
	return true
}

// TestValueWidthPageRankF32Reduction is the CI guard for the value-domain
// refactor's headline number: PageRank at scale 500 must cut its
// streamed+sync delta traffic by at least 40% when running the f32 domain
// instead of f64 (the wire word halves; the adaptive codec keeps the id
// stream shared). The f32 results are verified against the f64 oracle
// first, so the cut cannot come from dropping data.
func TestValueWidthPageRankF32Reduction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node PageRank runs")
	}
	g := pkProxy(t, 500)
	ref, refSync := valuewidthRun(t, g, "f64")
	got, gotSync := valuewidthRun(t, g, "f32")
	if !valuesMatch(got.Values, ref.Values) {
		t.Fatal("f32 PageRank diverged from the f64 oracle")
	}
	if refSync <= 0 {
		t.Fatalf("f64 run reports %d sync bytes", refSync)
	}
	reduction := 1 - float64(gotSync)/float64(refSync)
	t.Logf("sync+streamed bytes: f64=%d f32=%d (reduction %.1f%%)", refSync, gotSync, 100*reduction)
	if reduction < 0.40 {
		t.Fatalf("f32 cut sync traffic by only %.1f%% (%d -> %d bytes); want >= 40%%",
			100*reduction, refSync, gotSync)
	}
}
