// Command slfe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	slfe-bench -exp table5 -scale 1000 -nodes 8
//	slfe-bench -exp all
//
// Each experiment prints an aligned text table.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"slfe/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all | "+names()+")")
	scale := flag.Int("scale", 1000, "dataset down-scale factor (bigger = smaller graph)")
	nodes := flag.Int("nodes", 8, "simulated cluster size")
	threads := flag.Int("threads", 1, "threads per node")
	prIters := flag.Int("pr-iters", 30, "PageRank/TunkRank iterations")
	flag.Parse()

	if *nodes < 1 || *threads < 0 || *scale < 1 || *prIters < 1 {
		fmt.Fprintf(os.Stderr, "slfe-bench: invalid sizes (-nodes %d -threads %d -scale %d -pr-iters %d); "+
			"-nodes, -scale and -pr-iters must be at least 1, -threads non-negative\n",
			*nodes, *threads, *scale, *prIters)
		os.Exit(2)
	}

	cfg := bench.Config{
		Scale:   *scale,
		Nodes:   *nodes,
		Threads: *threads,
		PRIters: *prIters,
		Out:     os.Stdout,
	}
	if *exp == "all" {
		if err := bench.All(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "slfe-bench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := bench.Experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "slfe-bench: unknown experiment %q (want all | %s)\n", *exp, names())
		os.Exit(2)
	}
	if err := fn(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "slfe-bench:", err)
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for n := range bench.Experiments {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, " | ")
}
