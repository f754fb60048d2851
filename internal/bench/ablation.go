package bench

import (
	"fmt"
	"text/tabwriter"

	"slfe/internal/cluster"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/rrg"
)

// This file holds ablation studies of the reproduction's own design
// choices, beyond the paper's own figures.

// AblationDense sweeps the push/pull switch threshold (|E|/divisor; the
// paper and Gemini use 20) to show the dual-mode engine's sensitivity on
// SSSP and CC.
func AblationDense(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: push/pull dense threshold (|E|/divisor)")
	fmt.Fprintln(tw, "app\tdivisor\tseconds\tcomputations\tpull-iters\tpush-iters")
	for _, app := range []string{"SSSP", "CC"} {
		for _, div := range []int64{1, 5, 20, 100, 1 << 30} {
			res, err := c.RunSLFE(app, "FS", c.Nodes, true, func(o *cluster.Options) {
				o.DenseDivisor = div
			})
			if err != nil {
				return err
			}
			m := metrics.Merge(res.PerWorker)
			var pulls, pushes int
			for _, s := range m.Iters {
				if s.Mode == metrics.Pull {
					pulls++
				} else {
					pushes++
				}
			}
			label := fmt.Sprintf("%d", div)
			if div == 1<<30 {
				label = "push-only-never" // divisor so large pull always wins
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\t%d\t%d\n", app, label,
				res.Elapsed.Seconds(), m.Computations(), pulls, pushes)
		}
	}
	return tw.Flush()
}

// AblationIncremental quantifies incremental guidance maintenance
// (rrg.Guidance.Update, the §5 "minimise preprocessing overhead" future
// work): after a batch of edge insertions, updating the existing guidance
// touches only the affected region, while the baseline regenerates from
// scratch.
func AblationIncremental(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: incremental guidance maintenance (FS proxy)")
	fmt.Fprintln(tw, "batch-size\tupdate-seconds\tregenerate-seconds\tspeedup\tlevels-changed")
	base, err := c.Graph("FS")
	if err != nil {
		return err
	}
	roots := rrg.DefaultRoots(base)
	for _, batch := range []int{1, 16, 256, 4096} {
		// Deterministic synthetic insertions.
		added := make([]graph.Edge, batch)
		n := graph.VertexID(base.NumVertices())
		for i := range added {
			added[i] = graph.Edge{
				Src:    graph.VertexID(i*2654435761) % n,
				Dst:    graph.VertexID(i*40503+7) % n,
				Weight: 1,
			}
		}
		grown, err := graph.Build(base.NumVertices(), append(base.Edges(nil), added...))
		if err != nil {
			return err
		}
		gd := rrg.Generate(base, roots, nil)
		stats, err := gd.Update(grown, added)
		if err != nil {
			return err
		}
		regen := rrg.Generate(grown, roots, nil)
		speedup := regen.GenTime.Seconds() / stats.Time.Seconds()
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\t%.1fx\t%d\n",
			batch, stats.Time.Seconds(), regen.GenTime.Seconds(), speedup, stats.LevelsChanged)
	}
	return tw.Flush()
}

// AblationGuidanceReuse quantifies §4.4's amortisation claim: the RRG is
// generated once and reused by several applications on the same graph
// (Facebook's 8.7 jobs per graph). It reports the one-off generation cost
// against the per-application execution times. Only the arith applications
// (PR, TR) share it; the min/max ones (SSSP, WP) read no guidance, since
// start late is not applied.
func AblationGuidanceReuse(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: one guidance, many applications (FS proxy)")
	g, err := c.Graph("FS")
	if err != nil {
		return err
	}
	gd, _ := rrg.Shared(g, nil)
	fmt.Fprintf(tw, "RRG generation (once)\t%.5fs\trounds=%d maxLastIter=%d\n",
		gd.GenTime.Seconds(), gd.Rounds, gd.MaxLastIter)
	fmt.Fprintln(tw, "app\tseconds\tguidance")
	for _, a := range []struct {
		app    string
		shares bool
	}{{"SSSP", false}, {"WP", false}, {"PR", true}, {"TR", true}} {
		res, err := c.RunSLFE(a.app, "FS", c.Nodes, true)
		if err != nil {
			return err
		}
		want, used := (*rrg.Guidance)(nil), "none"
		if a.shares {
			want, used = gd, "reused"
		}
		if res.Guidance != want || res.PreprocessTime != 0 {
			return fmt.Errorf("bench: %s ran with guidance %p (preprocess %v), want %p", a.app, res.Guidance, res.PreprocessTime, want)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%s\n", a.app, res.Elapsed.Seconds(), used)
	}
	return tw.Flush()
}
