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
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "slfe-bench: unknown experiment %q (want all | %s)\n", *exp, names())
		os.Exit(2)
	}
	if err := e.Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "slfe-bench:", err)
		os.Exit(1)
	}
}

// names lists the -exp keys in run order.
func names() string {
	ns := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ns[i] = e.Name
	}
	return strings.Join(ns, " | ")
}
