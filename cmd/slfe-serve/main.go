// Command slfe-serve hosts a graph as a resident service: the graph stays
// in memory across mutation batches, redundancy-reduction guidance is
// maintained incrementally, and registered applications re-execute
// warm-started from their previous results instead of from scratch —
// concurrently, over a bounded session pool.
//
// Usage:
//
//	slfe-serve -addr :8080 -dataset PK -scale 4000 -apps sssp:f64,pr:f64
//	slfe-serve -graph graph.slfg -apps cc:u32 -nodes 4 -threads 2 -sessions 4
//
// Endpoints:
//
//	GET  /healthz                       liveness + current graph version
//	GET  /stats                         graph, program, mutation, cache and admission stats
//	GET  /result?app=&domain=&vertex=   one value at one vertex
//	GET  /topk?app=&domain=&k=&order=   k best vertices by value (version-cached)
//	GET  /route?app=&domain=&from=&to=  shortest path from a dist32 parent tree (version-cached)
//	POST /mutate                        {"add_vertices":N,"add":[...],"del":[...]}
//	POST /register                      {"app":"sssp","domain":"f64","root":0}
//
// SIGINT/SIGTERM drain the listener and shut the resident cluster down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/loader"
	"slfe/internal/service"
)

// serveConfig collects the daemon's flag surface.
type serveConfig struct {
	addr    string
	path    string
	dataset string
	scale   int
	apps    string
	root    uint
	iters   int

	nodes   int
	threads int
	rr      bool

	sessions      int
	cacheCapacity int
	mutationQueue int
	readInflight  int
}

func main() {
	var c serveConfig
	flag.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&c.path, "graph", "", "graph file (text or .slfg)")
	flag.StringVar(&c.dataset, "dataset", "", "Table 4 dataset code instead of -graph (PK OK LJ WK DI ST FS RMAT)")
	flag.IntVar(&c.scale, "scale", 1000, "dataset down-scale factor")
	flag.StringVar(&c.apps, "apps", "", "programs to register at startup, comma-separated key:domain pairs (e.g. sssp:f64,cc:u32)")
	flag.UintVar(&c.root, "root", 0, "root vertex for rooted programs")
	flag.IntVar(&c.iters, "iters", 10, "iterations for arithmetic programs")
	flag.IntVar(&c.nodes, "nodes", 1, "resident cluster size")
	flag.IntVar(&c.threads, "threads", 0, "threads per node (0 = GOMAXPROCS)")
	flag.BoolVar(&c.rr, "rr", true, "enable redundancy reduction: finish early for arith apps (guidance incrementally maintained)")
	flag.IntVar(&c.sessions, "sessions", 2, "session pool size (concurrent program executions)")
	flag.IntVar(&c.cacheCapacity, "cache", 4096, "read-cache capacity in entries (negative disables)")
	flag.IntVar(&c.mutationQueue, "mutation-queue", 4, "bounded mutation queue depth before 429")
	flag.IntVar(&c.readInflight, "read-inflight", 256, "per-endpoint in-flight read bound before 429")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "slfe-serve: %v\n", err)
		os.Exit(1)
	}
}

// newServer builds the daemon's http.Server with the connection hygiene a
// public listener needs: header/body read deadlines and an idle timeout, so
// one slow client (slowloris) cannot pin a connection forever. There is
// deliberately no WriteTimeout — a mutation batch legitimately re-executes
// programs for seconds before its response starts.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

func run(c serveConfig) error {
	if c.nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", c.nodes)
	}
	g, err := loadGraph(c.path, c.dataset, c.scale)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %v\n", g)
	root, err := rootID(uint64(c.root), g.NumVertices())
	if err != nil {
		return err
	}

	svc, err := service.New(g, service.Config{
		Nodes: c.nodes, Threads: c.threads, RR: c.rr,
		Sessions:      c.sessions,
		CacheCapacity: c.cacheCapacity,
		MutationQueue: c.mutationQueue,
		ReadInflight:  c.readInflight,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	for _, spec := range splitApps(c.apps) {
		key, domain, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("-apps entry %q is not key:domain", spec)
		}
		start := time.Now()
		snap, err := svc.Register(key, domain, root, c.iters)
		if err != nil {
			return err
		}
		fmt.Printf("registered %s (version %d, %v)\n", service.ProgramID(key, domain), snap.Version, time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	srv := newServer(service.Handler(svc))
	fmt.Printf("slfe-serve: listening on %s (sessions=%d cache=%d)\n", ln.Addr(), c.sessions, c.cacheCapacity)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("slfe-serve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return svc.Close()
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// rootID converts the -root flag to a vertex id, refusing a root outside
// [0, |V|) instead of truncating it to 32 bits before Register checks it.
// The default root 0 passes on an empty graph, which serves no rooted
// program until it grows.
func rootID(root uint64, n int) (graph.VertexID, error) {
	if root > 0 && root >= uint64(n) {
		return 0, fmt.Errorf("-root %d outside [0, %d)", root, n)
	}
	return graph.VertexID(root), nil
}

func splitApps(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func loadGraph(path, dataset string, scale int) (*graph.Graph, error) {
	if path != "" {
		return loader.LoadFile(path)
	}
	if dataset != "" {
		d, err := gen.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return d.Proxy(scale), nil
	}
	return nil, fmt.Errorf("one of -graph or -dataset is required")
}
