package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"

	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/metrics"
)

// hotpathApps is the full registered application set the differential test
// also exercises: every aggregation class, push/pull mix and frontier shape
// the engine's hot path serves.
var hotpathApps = []string{"SSSP", "BFS", "CC", "WP", "PR", "TR", "SpMV", "NumPaths"}

// Hotpath profiles the zero-allocation superstep hot path: every app runs
// single-node (so the process-global allocation counters are attributable)
// with per-superstep runtime.ReadMemStats deltas over the flat push
// combiner and pooled wire buffers. Steady state is the median of the last
// half of the supersteps — after the warm-up supersteps that grow the
// engine-owned pools. A second section measures the codec layer alone:
// pooled AppendEncodeBest against allocating EncodeBest. With a trace
// exporter configured, the per-superstep alloc series is written as one TSV
// per app plus a summary and the codec comparison.
func Hotpath(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Hotpath: steady-state heap allocations per superstep (median of last half; single node)")
	fmt.Fprintln(tw, "app\tgraph\titers\tallocs/step\tB/step")
	var summary [][]string
	for _, app := range hotpathApps {
		res, err := c.RunSLFE(app, "PK", 1, true, func(o *cluster.Options) {
			o.MeasureAllocs = true
			o.Codec = compress.Adaptive{}
		})
		if err != nil {
			return fmt.Errorf("hotpath %s: %w", app, err)
		}
		iters := res.Result.Metrics.Iters
		allocs, bytes := steadyState(iters)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", app, "PK", res.Result.Iterations, allocs, bytes)
		summary = append(summary, []string{
			app,
			fmt.Sprintf("%d", res.Result.Iterations),
			fmt.Sprintf("%d", allocs), fmt.Sprintf("%d", bytes),
		})
		var rows [][]string
		for _, it := range iters {
			rows = append(rows, []string{
				fmt.Sprintf("%d", it.Iter),
				it.Mode.String(),
				fmt.Sprintf("%d", it.HeapAllocs),
				fmt.Sprintf("%d", it.HeapBytes),
			})
		}
		if err := c.Trace.Table("hotpath-"+app, []string{"iter", "mode", "allocs", "bytes"}, rows); err != nil {
			return err
		}
	}
	err := c.Trace.Table("hotpath-summary", []string{"app", "iters", "allocs", "bytes"}, summary)
	if err != nil {
		return err
	}

	// Codec layer: pooled append-encode vs allocating encode over a
	// representative dense batch.
	fmt.Fprintln(tw, "\nHotpath codec: adaptive encode of a 4096-entry batch, allocations per op")
	fmt.Fprintln(tw, "path\tallocs/op\tB/op")
	ids := make([]uint32, 4096)
	vals := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint32(i * 3)
		vals[i] = math.Float64bits(float64(i % 17))
	}
	var sc compress.EncodeScratch
	var buf []byte
	pa, pb := measureAllocs(func() {
		buf, _ = compress.AppendEncodeBest(buf[:0], &sc, 8, ids, vals)
	})
	ua, ub := measureAllocs(func() {
		_, _ = compress.EncodeBest(8, ids, vals)
	})
	fmt.Fprintf(tw, "pooled\t%.1f\t%.0f\n", pa, pb)
	fmt.Fprintf(tw, "unpooled\t%.1f\t%.0f\n", ua, ub)
	err = c.Trace.Table("hotpath-codec",
		[]string{"path", "allocs_per_op", "bytes_per_op"}, [][]string{
			{"pooled", fmt.Sprintf("%.1f", pa), fmt.Sprintf("%.0f", pb)},
			{"unpooled", fmt.Sprintf("%.1f", ua), fmt.Sprintf("%.0f", ub)},
		})
	if err != nil {
		return err
	}
	return tw.Flush()
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

// measureAllocs runs fn repeatedly (after one warm-up call) and returns the
// mean mallocs and bytes per call — the experiment harness' stand-in for
// testing.AllocsPerRun.
func measureAllocs(fn func()) (allocsPerOp, bytesPerOp float64) {
	const reps = 200
	fn() // warm-up: grow any pooled buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / reps,
		float64(after.TotalAlloc-before.TotalAlloc) / reps
}

// sameBits reports bit-exact equality of two value arrays.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
