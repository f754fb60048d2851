package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
)

// Analytics exercises the Table 1 applications that are whole-graph
// analyses rather than vertex-property programs — TriangleCounting,
// k-core/Clique and MinimalSpanningTree — across the dataset proxies and
// two cluster sizes, reporting results alongside runtimes so regressions
// in either are visible. (The paper lists these apps in Table 1 but does
// not evaluate them; this table completes the implementation coverage.)
func Analytics(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Analytics: Table 1 whole-graph applications")
	fmt.Fprintln(tw, "graph\tnodes\ttriangles\ttri-secs\tmax-core\tclique>=\tclique-secs\tmst-weight\tmst-secs")
	for _, name := range []string{"PK", "LJ", "ST"} {
		g, err := c.Graph(name)
		if err != nil {
			return err
		}
		for _, nodes := range []int{1, c.Nodes} {
			opt := cluster.Options{Nodes: nodes, Threads: c.Threads}

			tri, err := apps.TriangleCount(g, opt)
			if err != nil {
				return err
			}
			triSecs := seconds(func() error { _, err := apps.TriangleCount(g, opt); return err })

			cores, err := apps.KCore(g, opt)
			if err != nil {
				return err
			}
			maxCore := uint32(0)
			for _, k := range cores {
				if k > maxCore {
					maxCore = k
				}
			}
			var cliqueSize int
			cliqueSecs := seconds(func() error {
				cl, err := apps.MaxCliqueApprox(g, 16, opt)
				if err == nil {
					cliqueSize = len(cl.Members)
				}
				return err
			})

			var weight float64
			mstSecs := seconds(func() error {
				f, err := apps.MST(g, opt)
				if err == nil {
					weight = f.Weight
				}
				return err
			})

			fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%d\t%d\t%.4f\t%.0f\t%.4f\n",
				name, nodes, tri.Triangles, triSecs, maxCore, cliqueSize, cliqueSecs, weight, mstSecs)
		}
	}
	return tw.Flush()
}

// seconds times fn once (0 on error; the caller surfaces errors through
// its own call).
func seconds(fn func() error) float64 {
	start := time.Now()
	if err := fn(); err != nil {
		return 0
	}
	return time.Since(start).Seconds()
}
