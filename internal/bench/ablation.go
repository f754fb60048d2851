package bench

import (
	"fmt"
	"text/tabwriter"

	"slfe/internal/apps"
	"slfe/internal/baseline/async"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
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

// AblationPartition compares the chunked (Gemini/SLFE) ingress against the
// hash ingress on partition-quality metrics, explaining why SLFE inherits
// chunking (§3.1).
func AblationPartition(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: partition quality, chunked (SLFE/Gemini) vs hashed (Pregel-style)")
	fmt.Fprintln(tw, "graph\tscheme\tvertex-imbalance\tedge-imbalance\tedge-cut")
	for _, name := range GraphNames {
		g, err := c.Graph(name)
		if err != nil {
			return err
		}
		chunked, err := partition.NewChunked(g, c.Nodes)
		if err != nil {
			return err
		}
		hashed, err := partition.NewHashed(g.NumVertices(), c.Nodes)
		if err != nil {
			return err
		}
		for _, p := range []struct {
			name string
			part partition.Partition
		}{{"chunked", chunked}, {"hashed", hashed}} {
			b := partition.Measure(g, p.part)
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\n", name, p.name,
				b.VertexImbalance, b.EdgeImbalance, b.EdgeCut)
		}
	}
	return tw.Flush()
}

// AblationCodec compares the delta-sync wire codecs: raw (12 bytes/entry)
// against adaptive. §4.2 attributes part of SLFE's win to reduced
// communication volume; the codec attacks the remaining bytes directly.
func AblationCodec(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: delta-sync codec (8 workers)")
	fmt.Fprintln(tw, "app\tgraph\tcodec\tseconds\tmsgs\tbytes")
	for _, app := range []string{"SSSP", "CC", "PR"} {
		for _, name := range []string{"LJ", "FS"} {
			for _, codec := range []compress.Codec{compress.Raw{}, compress.Adaptive{}} {
				res, err := c.RunSLFE(app, name, c.Nodes, true, func(o *cluster.Options) {
					o.Codec = codec
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%d\t%d\n", app, name, codec.Name(),
					res.Elapsed.Seconds(), res.Comm.MessagesSent, res.Comm.BytesSent)
			}
		}
	}
	return tw.Flush()
}

// AblationRebalance evaluates the §5 future-work item implemented in
// internal/balance: dynamic inter-node boundary adjustment. It reports the
// Figure 10b imbalance statistic and runtime with rebalancing off and on.
func AblationRebalance(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: dynamic inter-node rebalancing (§5 future work)")
	fmt.Fprintln(tw, "app\tgraph\trebalance\tseconds\timbalance\tmoves")
	for _, app := range []string{"SSSP", "PR"} {
		for _, name := range []string{"LJ", "FS"} {
			for _, reb := range []bool{false, true} {
				res, err := c.RunSLFE(app, name, c.Nodes, true, func(o *cluster.Options) {
					o.Rebalance = reb
					o.RebalanceEvery = 2
					o.RebalanceDamping = 0.5
				})
				if err != nil {
					return err
				}
				m := metrics.Merge(res.PerWorker)
				fmt.Fprintf(tw, "%s\t%s\t%v\t%.4f\t%.3f\t%d\n", app, name, reb,
					res.Elapsed.Seconds(), metrics.Imbalance(res.PerWorker), m.Rebalances)
			}
		}
	}
	return tw.Flush()
}

// AblationReorder measures the effect of vertex relabelling on the engine:
// CSR locality and chunk balance follow vertex numbering, so degree order
// (hubs first) and BFS order (neighbours adjacent) shift runtime without
// changing results. The paper's systems all consume graphs in their
// published numbering; this quantifies what a smarter ingress could add.
func AblationReorder(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: vertex ordering (same graph, relabelled)")
	fmt.Fprintln(tw, "app\tgraph\tordering\tseconds\tcomputations")
	for _, app := range []string{"SSSP", "PR"} {
		for _, name := range []string{"LJ", "FS"} {
			base, err := c.graphFor(app, name)
			if err != nil {
				return err
			}
			orderings := []struct {
				label string
				perm  []graph.VertexID
			}{
				{"original", nil},
				{"degree", graph.DegreeOrder(base)},
				{"bfs", graph.BFSOrder(base, 0)},
			}
			for _, ord := range orderings {
				g := base
				if ord.perm != nil {
					var err error
					g, err = base.Relabel(ord.perm)
					if err != nil {
						return err
					}
				}
				p, err := c.Program(app, g)
				if err != nil {
					return err
				}
				// Root 0 keeps its identity under both generated orders
				// (highest-degree vertex maps elsewhere for "degree", so
				// translate the root through the permutation).
				if ord.perm != nil && len(p.Roots) == 1 {
					p = remapRootProgram(c, app, g, ord.perm[0])
				}
				res, err := cluster.Execute(g, p, cluster.Options{
					Nodes: c.Nodes, Threads: c.Threads, Stealing: true, RR: true,
				})
				if err != nil {
					return err
				}
				m := metrics.Merge(res.PerWorker)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%d\n", app, name, ord.label,
					res.Elapsed.Seconds(), m.Computations())
			}
		}
	}
	return tw.Flush()
}

// remapRootProgram rebuilds the app's program with the given root.
func remapRootProgram(c Config, app string, g *graph.Graph, root graph.VertexID) *core.Program[float64] {
	switch app {
	case "SSSP":
		return apps.SSSP(root)
	case "WP":
		return apps.WP(root)
	}
	p, _ := c.Program(app, g)
	return p
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

// AblationAsync pits the BSP engine (with and without RR) against the
// asynchronous label-correcting baseline (internal/baseline/async,
// PowerSwitch-style) on the min/max applications. Async collapses the
// round count — updates cross many hops per round — and its depth-first
// drain can even relax fewer edges than BSP on distance-like programs,
// but on CC it floods: min-label propagation over a dense symmetric graph
// re-relaxes whole regions per label improvement (hundreds of times more
// computations on the FS proxy), which is exactly the
// parallelism-vs-redundancy trade-off the paper's §1 frames. The worst
// cell (CC, FS) is skipped above a size threshold to keep the suite fast.
func AblationAsync(c Config) error {
	c.defaults()
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation: sync (BSP) vs async engines on min/max apps")
	fmt.Fprintln(tw, "app\tgraph\tengine\tseconds\trounds\tcomputations")
	for _, app := range []string{"SSSP", "CC", "WP"} {
		for _, name := range []string{"LJ", "FS"} {
			g, err := c.graphFor(app, name)
			if err != nil {
				return err
			}
			p, err := c.Program(app, g)
			if err != nil {
				return err
			}
			for _, engine := range []string{"bsp", "bsp+rr", "async"} {
				var secs float64
				var rounds int
				var comps int64
				switch engine {
				case "async":
					if app == "CC" && g.NumEdges() > 200_000 {
						fmt.Fprintf(tw, "%s\t%s\t%s\tskipped (label flooding; see doc comment)\t\t\n", app, name, engine)
						continue
					}
					res, _, err := async.Execute(g, p, c.Nodes)
					if err != nil {
						return err
					}
					secs = res.Metrics.Total.Seconds()
					rounds = res.Rounds
					comps = res.Metrics.Computations()
				default:
					res, err := c.RunSLFE(app, name, c.Nodes, engine == "bsp+rr")
					if err != nil {
						return err
					}
					m := metrics.Merge(res.PerWorker)
					secs = res.Elapsed.Seconds()
					rounds = res.Result.Iterations
					comps = m.Computations()
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%d\t%d\n", app, name, engine, secs, rounds, comps)
			}
		}
	}
	return tw.Flush()
}

// AblationGuidanceReuse quantifies §4.4's amortisation claim: the RRG is
// generated once and reused by several applications on the same graph
// (Facebook's 8.7 jobs per graph). It reports the one-off generation cost
// against the per-application execution times that share it.
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
	fmt.Fprintln(tw, "app\tseconds (guidance reused)")
	for _, app := range []string{"SSSP", "WP", "PR", "TR"} {
		res, err := c.RunSLFE(app, "FS", c.Nodes, true)
		if err != nil {
			return err
		}
		if res.Guidance != gd || res.PreprocessTime != 0 {
			return fmt.Errorf("bench: guidance was regenerated despite reuse")
		}
		fmt.Fprintf(tw, "%s\t%.4f\n", app, res.Elapsed.Seconds())
	}
	return tw.Flush()
}
