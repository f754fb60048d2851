package bench

import (
	"fmt"
	"text/tabwriter"

	"slfe/internal/apps"
	"slfe/internal/baseline/gas"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
)

// helpers shared by scale.go

func symmetrize(g *graph.Graph) *graph.Graph { return apps.Symmetrize(g) }

func gasExecute(g *graph.Graph, p *core.Program[float64], nodes, threads int) (*gas.Result, []*metrics.Run, int64, error) {
	res, runs, stats, err := gas.Execute(g, p, nodes, gas.PowerLyra, threads)
	return res, runs, stats.BytesSent, err
}

func clusterExecute(g *graph.Graph, p *core.Program[float64], nodes, threads int) (*cluster.RunResult[float64], error) {
	return cluster.Execute(g, p, cluster.Options{Nodes: nodes, Threads: threads, RR: true})
}

// Figure9 reproduces Figure 9: the number of computations per iteration
// with and without redundancy reduction, for SSSP, CC (frontier bells that
// merge at convergence) and PR (step-down as EC vertices accumulate), on
// the FS and LJ proxies. It diverges from the paper for SSSP and CC: start
// late is not applied, so their two columns are equal by construction, and
// only PR's finish early separates them.
func Figure9(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 9: computations per iteration (w/o RR vs w/ RR)")
	fmt.Fprintln(tw, "app\tgraph\titer\tw/o RR\tw/ RR")
	for _, app := range []string{"SSSP", "CC", "PR"} {
		for _, name := range []string{"FS", "LJ"} {
			base, err := c.RunSLFE(app, name, c.Nodes, false)
			if err != nil {
				return err
			}
			rr, err := c.RunSLFE(app, name, c.Nodes, true)
			if err != nil {
				return err
			}
			b := mergeComputationsPerIter(base.PerWorker)
			r := mergeComputationsPerIter(rr.PerWorker)
			rows := len(b)
			if len(r) > rows {
				rows = len(r)
			}
			var bTot, rTot int64
			for i := 0; i < rows; i++ {
				var bv, rv int64
				if i < len(b) {
					bv = b[i]
				}
				if i < len(r) {
					rv = r[i]
				}
				bTot += bv
				rTot += rv
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", app, name, i, bv, rv)
			}
			fmt.Fprintf(tw, "%s\t%s\ttotal\t%d\t%d\n", app, name, bTot, rTot)
		}
	}
	return tw.Flush()
}

// Figure10 reproduces Figure 10: (a) SLFE's runtime per application and the
// chunks its threads stole, and (b) the inter-node imbalance — the relative
// gap between the earliest and latest finishing node — without and with
// RR. Every scheduler steals, so (a) has no w/o-stealing column to
// normalise by. The paper reports <7% imbalance without RR and ~2% added
// by RR.
func Figure10(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 10a: runtime with work stealing")
	fmt.Fprintln(tw, "app\truntime(s)\tsteals")
	name := "FS"
	// Stealing needs multiple threads per node to engage.
	threads := max(c.Threads, 4)
	for _, app := range AppNames {
		res, err := c.RunSLFE(app, name, c.Nodes, true, func(o *cluster.Options) { o.Threads = threads })
		if err != nil {
			return err
		}
		var steals int64
		for _, w := range res.PerWorker {
			steals += w.Steals
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%d\n", app, perIterSeconds(app, res.Elapsed, res.Result.Iterations), steals)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Figure 10b: inter-node compute-time imbalance (max-min)/max")
	fmt.Fprintln(tw, "app\tw/o RR\tw/ RR")
	for _, app := range AppNames {
		base, err := c.RunSLFE(app, name, c.Nodes, false)
		if err != nil {
			return err
		}
		rr, err := c.RunSLFE(app, name, c.Nodes, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n", app,
			100*metrics.Imbalance(base.PerWorker),
			100*metrics.Imbalance(rr.PerWorker))
	}
	return tw.Flush()
}
