// Command slfe-run executes one graph application on one graph with the
// SLFE engine (or a baseline) on a simulated cluster.
//
// Usage:
//
//	slfe-run -app sssp -graph graph.slfg -nodes 8 -rr
//	slfe-run -app pr -dataset FS -scale 1000 -iters 30 -system powergraph
//	slfe-run -app pr -dataset FS -domain f32              # half-width wire/values
//	slfe-run -app cc -dataset OK -domain u32              # exact integer labels
//
// It prints the runtime, per-iteration statistics and a sample of results.
// Run with -help for the registered application × value-domain matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"slfe/internal/apps"
	"slfe/internal/baseline/gas"
	"slfe/internal/baseline/ligra"
	"slfe/internal/baseline/ooc"
	"slfe/internal/cluster"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/loader"
	"slfe/internal/metrics"
	"slfe/internal/store"
)

// domainWidth resolves a value-domain name to its wire word width via the
// authoritative core mapping.
func domainWidth(domain string) (int, error) {
	if w, ok := core.WidthOf(domain); ok {
		return w, nil
	}
	return 0, fmt.Errorf("unknown value domain %q (want f64 | f32 | u32 | dist32)", domain)
}

func main() {
	app := flag.String("app", "sssp", "application: see the registered-applications table in -help (plus triangles | kcore | clique | mst | diameter)")
	domain := flag.String("domain", "f64", "value domain: f64 (original, 8-byte) | f32 (paper-faithful, 4-byte) | u32 (exact integer labels) | dist32 (SSSP distance+parent tree)")
	path := flag.String("graph", "", "graph file (text, .slfg, or .slfc compressed CSR)")
	memBudget := flag.Int64("mem-budget", 0, "memory budget in bytes for .slfc graphs: 0 mmaps the file; a positive budget smaller than the file switches to out-of-core supersteps (block streaming via pread)")
	dataset := flag.String("dataset", "", "Table 4 dataset code instead of -graph (PK OK LJ WK DI ST FS RMAT)")
	scale := flag.Int("scale", 1000, "dataset down-scale factor")
	system := flag.String("system", "slfe", "engine: slfe | powergraph | powerlyra | graphchi | ligra (baselines run the f64 domain only and reject the flags marked (slfe))")
	nodes := flag.Int("nodes", 1, "cluster size (slfe/powergraph/powerlyra)")
	threads := flag.Int("threads", 0, "threads per node (0 = GOMAXPROCS)")
	rr := flag.Bool("rr", true, "enable redundancy reduction: finish early for arith apps (slfe)")
	root := flag.Uint("root", 0, "root vertex for sssp/bfs/wp/numpaths")
	iters := flag.Int("iters", 30, "iterations for arithmetic apps")
	verbose := flag.Bool("v", false, "print per-iteration statistics")
	flag.Usage = usage
	flag.Parse()

	if err := rejectIgnoredFlags(*system); err != nil {
		fatal(err)
	}
	if *nodes < 1 {
		fatal(fmt.Errorf("-nodes must be at least 1 (got %d)", *nodes))
	}
	if *threads < 0 {
		fatal(fmt.Errorf("-threads must be non-negative (got %d)", *threads))
	}
	if *scale < 1 {
		fatal(fmt.Errorf("-scale must be at least 1 (got %d)", *scale))
	}
	if *iters < 1 {
		fatal(fmt.Errorf("-iters must be at least 1 (got %d)", *iters))
	}
	width, err := domainWidth(*domain)
	if err != nil {
		fatal(err)
	}

	if *memBudget < 0 {
		fatal(fmt.Errorf("-mem-budget must be non-negative (got %d)", *memBudget))
	}
	g, closeG, err := loadGraph(*path, *dataset, *scale, *memBudget)
	if err != nil {
		fatal(err)
	}
	defer closeG()
	disk, _ := g.(*store.Graph)
	fmt.Printf("graph: %v\n", g)
	rootV, err := rootID(uint64(*root), g.NumVertices())
	if err != nil {
		fatal(err)
	}

	opt := cluster.Options{Nodes: *nodes, Threads: *threads, RR: *rr}
	if *nodes > 1 {
		opt.Codec = compress.Adaptive{W: width}
	}
	appKey := strings.ToLower(*app)
	if runAnalytics(appKey, g, rootV, opt) {
		return
	}

	var values []float64
	var run *metrics.Run
	switch strings.ToLower(*system) {
	case "slfe":
		entry, ok := apps.LookupRunnable(appKey, *domain)
		if !ok {
			if doms := apps.RunnableDomains(appKey); len(doms) > 0 {
				fatal(fmt.Errorf("application %q is not registered for domain %q (available: %s)",
					appKey, *domain, strings.Join(doms, " ")))
			}
			fatal(fmt.Errorf("unknown application %q; run with -help for the registered table", appKey))
		}
		runG := g
		if entry.NeedsSym {
			runG = apps.Symmetrize(g)
		}
		out, err := entry.Build(rootV, *iters).Execute(runG, opt)
		if err != nil {
			fatal(err)
		}
		g = runG
		values = out.Values
		run = metrics.Merge(out.PerWorker)
		fmt.Printf("system: SLFE (rr=%v domain=%s width=%dB) nodes=%d elapsed=%v preprocess=%v comm=%d msgs / %d bytes\n",
			*rr, *domain, width, *nodes, out.Elapsed, out.Preprocess, out.Comm.MessagesSent, out.Comm.BytesSent)
		fmt.Printf("delta-sync: overlapped=%d codec-picks=%s\n", run.OverlappedSyncs, formatPicks(run.CodecPicks))
		var streamed, syncB int64
		for _, s := range run.Iters {
			streamed += s.StreamedBytes
			syncB += s.SyncBytes
		}
		if syncB > 0 {
			fmt.Printf("overlap: streamed %dB of %dB sync traffic during compute (ratio %.2f)\n",
				streamed, syncB, float64(streamed)/float64(syncB))
		}
		if *verbose { // slowest worker per phase; commit is inside compute
			us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
			fmt.Printf("phases: frontier=%v compute=%v commit=%v sync=%v steals=%d\n",
				us(run.FrontierTime), us(run.ComputeTime), us(run.CommitTime), us(run.SyncTime), run.Steals)
		}
	case "powergraph", "powerlyra":
		prog, runG := baselineProgram(appKey, g, rootV, *iters, *domain)
		hg := heap(runG)
		g = hg
		mode := gas.PowerGraph
		if strings.ToLower(*system) == "powerlyra" {
			mode = gas.PowerLyra
		}
		res, _, stats, err := gas.Execute(hg, prog, *nodes, mode, *threads)
		if err != nil {
			fatal(err)
		}
		values = res.Values
		run = res.Metrics
		fmt.Printf("system: %v nodes=%d elapsed=%v comm=%d msgs / %d bytes\n",
			mode, *nodes, res.Metrics.Total, stats.MessagesSent, stats.BytesSent)
	case "graphchi":
		prog, runG := baselineProgram(appKey, g, rootV, *iters, *domain)
		g = runG
		dir, err := os.MkdirTemp("", "slfe-run-ooc-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		// ooc shards from any View, so a disk-backed graph stays on disk.
		eng, err := ooc.Build(g, dir, 8)
		if err != nil {
			fatal(err)
		}
		res, err := eng.Run(prog)
		if err != nil {
			fatal(err)
		}
		values = res.Values
		run = res.Metrics
		fmt.Printf("system: GraphChi-proxy elapsed=%v diskIO=%d bytes\n", res.Metrics.Total, res.BytesRead)
	case "ligra":
		prog, runG := baselineProgram(appKey, g, rootV, *iters, *domain)
		hg := heap(runG)
		g = hg
		res, err := ligra.Execute(hg, prog, *threads)
		if err != nil {
			fatal(err)
		}
		values = res.Values
		run = res.Metrics
		fmt.Printf("system: Ligra-proxy elapsed=%v\n", res.Metrics.Total)
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}

	fmt.Printf("iterations=%d computations=%d updates=%d suppressed=%d\n",
		len(run.Iters), run.Computations(), run.Updates(), run.Suppressed())
	if *verbose {
		for _, s := range run.Iters {
			fmt.Printf("  iter=%-3d mode=%-4s active=%-8d comps=%-10d updates=%-8d suppressed=%d\n",
				s.Iter, s.Mode, s.ActiveVerts, s.Computations, s.Updates, s.Suppressed)
		}
		if disk != nil {
			fmt.Printf("slfc-cache: %v\n", disk.InCache())
		}
	}
	printSample(appKey, g, values)
}

// usage prints the flag defaults followed by the registered
// application × value-domain table.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
	flag.PrintDefaults()
	fmt.Fprintln(flag.CommandLine.Output(), "\nRegistered applications (application: domains, aggregation):")
	byKey := map[string][]string{}
	agg := map[string]core.AggKind{}
	var keys []string
	for _, a := range apps.Runnables() {
		if _, ok := byKey[a.Key]; !ok {
			keys = append(keys, a.Key)
		}
		byKey[a.Key] = append(byKey[a.Key], a.Domain)
		agg[a.Key] = a.Agg
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %-18s %s\n", k, strings.Join(byKey[k], " "), agg[k])
	}
	fmt.Fprintln(flag.CommandLine.Output(), "  plus whole-graph analytics: triangles | kcore | clique | mst | diameter (f64)")
}

// rejectIgnoredFlags refuses a run that names a flag nothing would read:
// -rr, which only the SLFE engine reads, on a baseline run, so -system
// ligra -rr=false fails up front instead of silently running without it.
func rejectIgnoredFlags(system string) error {
	rr := false
	flag.Visit(func(f *flag.Flag) { rr = rr || f.Name == "rr" })
	if rr && !strings.EqualFold(system, "slfe") {
		return fmt.Errorf("-system %s does not read -rr (slfe engine only): remove or run -system slfe", system)
	}
	return nil
}

// rootID converts the -root flag to a vertex id, refusing a root outside
// [0, |V|) instead of truncating it to 32 bits. The default root 0 passes
// on an empty graph, whose rooted programs then have nothing to start from.
func rootID(root uint64, n int) (graph.VertexID, error) {
	if root > 0 && root >= uint64(n) {
		return 0, fmt.Errorf("-root %d outside [0, %d)", root, n)
	}
	return graph.VertexID(root), nil
}

// loadGraph opens the input as a graph.View: .slfc files are served from
// disk (mmap'd, or out-of-core under -mem-budget); everything else is
// parsed onto the heap. The close function releases any file mapping.
func loadGraph(path, dataset string, scale int, budget int64) (graph.View, func() error, error) {
	if path != "" {
		return loader.OpenView(path, budget)
	}
	if dataset != "" {
		d, err := gen.ByName(dataset)
		if err != nil {
			return nil, nil, err
		}
		return d.Proxy(scale), func() error { return nil }, nil
	}
	return nil, nil, fmt.Errorf("one of -graph or -dataset is required")
}

// heap materialises a disk-backed view for the baselines that interpret the
// in-memory CSR directly; a heap graph passes through untouched.
func heap(g graph.View) *graph.Graph {
	if hg, ok := g.(*graph.Graph); ok {
		return hg
	}
	hg, err := graph.Materialize(g)
	if err != nil {
		fatal(err)
	}
	return hg
}

// baselineProgram builds the float64 program the proxy baselines run (they
// interpret Program hooks directly and support only the f64 domain); for CC
// it returns the symmetrised graph.
func baselineProgram(app string, g graph.View, root graph.VertexID, iters int, domain string) (*core.Program[float64], graph.View) {
	if domain != "f64" {
		fatal(fmt.Errorf("baseline systems run the f64 domain only (got -domain %s)", domain))
	}
	switch app {
	case "sssp":
		return apps.SSSP(root), g
	case "bfs":
		return apps.BFS(root), g
	case "cc":
		sym := apps.Symmetrize(g)
		return apps.CC(sym), sym
	case "wp":
		return apps.WP(root), g
	case "pr":
		return apps.PageRank(iters), g
	case "tr":
		return apps.TunkRank(iters), g
	case "spmv":
		return apps.SpMV(iters), g
	case "numpaths":
		return apps.NumPaths(root, iters), g
	case "heat":
		return apps.HeatSimulation([]graph.VertexID{root}, iters), g
	case "bp":
		// Demo priors: the root holds positive evidence.
		prior := func(_ graph.View, v graph.VertexID) float64 {
			if v == root {
				return 2
			}
			return 0
		}
		return apps.BeliefPropagation(prior, apps.BeliefCoupling, iters), g
	}
	fatal(fmt.Errorf("unknown app %q for baseline systems", app))
	return nil, nil
}

// runAnalytics handles the applications that are whole-graph analyses
// rather than vertex-property programs. It reports whether app was handled.
func runAnalytics(app string, g graph.View, root graph.VertexID, opt cluster.Options) bool {
	switch app {
	case "triangles":
		st, err := apps.TriangleCount(g, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("triangles: %d (comm %d msgs / %d bytes)\n", st.Triangles, st.Comm.MessagesSent, st.Comm.BytesSent)
	case "kcore":
		cores, err := apps.KCore(g, opt)
		if err != nil {
			fatal(err)
		}
		hist := map[uint32]int{}
		maxCore := uint32(0)
		for _, c := range cores {
			hist[c]++
			if c > maxCore {
				maxCore = c
			}
		}
		fmt.Printf("max coreness: %d\n", maxCore)
		for k := uint32(0); k <= maxCore; k++ {
			if hist[k] > 0 {
				fmt.Printf("  core %d: %d vertices\n", k, hist[k])
			}
		}
	case "clique":
		cl, err := apps.MaxCliqueApprox(g, 32, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("clique: size %d (k-core bound %d) members %v\n", len(cl.Members), cl.CoreBound, cl.Members)
	case "mst":
		f, err := apps.MST(g, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("minimum spanning forest: %d edges, weight %.3f, %d Borůvka rounds\n", len(f.Edges), f.Weight, f.Rounds)
	case "diameter":
		samples := []graph.VertexID{root}
		for i := 1; i < 8 && i < g.NumVertices(); i++ {
			samples = append(samples, graph.VertexID(i*(g.NumVertices()/8)))
		}
		d, err := apps.ApproxDiameter(g, samples, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("approximate diameter (lower bound from %d BFS samples): %d\n", len(samples), d)
	default:
		return false
	}
	return true
}

func printSample(app string, g graph.View, values []float64) {
	if len(values) == 0 {
		return
	}
	switch app {
	case "pr", "tr":
		scores := values
		if app == "pr" {
			scores = apps.PageRankScores(g, values)
		} else {
			scores = apps.TunkRankScores(g, values)
		}
		type kv struct {
			v graph.VertexID
			s float64
		}
		top := make([]kv, 0, len(scores))
		for v, s := range scores {
			top = append(top, kv{graph.VertexID(v), s})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].s > top[j].s })
		fmt.Println("top 5 vertices:")
		for i := 0; i < 5 && i < len(top); i++ {
			fmt.Printf("  #%d vertex %d score %.6f\n", i+1, top[i].v, top[i].s)
		}
	default:
		fmt.Println("first 10 values:")
		for v := 0; v < 10 && v < len(values); v++ {
			fmt.Printf("  vertex %d: %g\n", v, values[v])
		}
	}
}

// formatPicks renders the wire-layout counts in stable name order.
func formatPicks(picks map[string]int64) string {
	if len(picks) == 0 {
		return "none"
	}
	names := make([]string, 0, len(picks))
	for n := range picks {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, picks[n])
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slfe-run:", err)
	os.Exit(1)
}
