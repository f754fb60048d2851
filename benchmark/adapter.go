package main

// adapter.go is the only file of the benchmark that imports slfe/internal/...
// Everything else reaches the system through the names below, so a change to
// a public function of the repo has its blast radius listed here.
//
// Public API the benchmark calls, per layer:
//
//	gen        RMATStream, DefaultRMAT
//	graph      Build, WithEdges; View/Cursor: NumVertices, NumEdges,
//	           OutDegree, OutNeighbors, InNeighbors, Cursor
//	loader     SaveFile(.slfg), OpenView
//	store      Write, Open, OpenBudget, (*Graph).Close
//	rrg        DefaultRoots, Generate, (*Guidance).Clone, (*Guidance).Update
//	partition  NewChunked
//	ws         New, (*Scheduler).Run, (*Scheduler).Close
//	apps       LookupRunnable(..).Build(..).Execute, PageRank, SSSP,
//	           PageRankScores, RefPageRank, RefSSSP; Outcome fields Values,
//	           Iterations, PerWorker, Comm
//	cluster    Options, Execute, ExecuteOver, NewSession, ExecuteSession,
//	           (*Session).Close; RunResult fields Result, PerWorker, Comm
//	core       SyncAdaptive; Result fields Values, Iterations, LastChange
//	metrics    Run.Iters (Mode, Computations, Updates), Run.Steals
//	compress   Raw, Adaptive: Encode, Decode
//	comm       LoopbackTCP, NewLocalGroup, NewComm, Abort; (*Comm).Barrier,
//	           AllReduceI64, SparseExchange, AllGather, StartExchange;
//	           (*Exchange).SendChunk, SendFinalChunk, Finish;
//	           Transport.Close
//	ckpt       Manager{Dir, Every}: LatestComplete, Load, Save
//	service    New, Config, (*Service).Register, Close, Cache().Stats,
//	           Admission().Stats; Handler and its /mutate, /result, /topk,
//	           /route endpoints

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"slfe/internal/apps"
	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/loader"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
	"slfe/internal/service"
	"slfe/internal/store"
	"slfe/internal/ws"
)

// Aliases let the other files hold these values without importing the
// packages; the methods they call on them are in the header list.
type (
	Graph = graph.Graph
	View  = graph.View
	Edge  = graph.Edge
	Comm  = comm.Comm
)

// ---- gen, graph, loader, store -------------------------------------------

// rmatEdges generates the R-MAT edge list gen.RMAT would build from.
func rmatEdges(n int, m int64, maxWeight int, seed int64) []Edge {
	edges := make([]Edge, 0, m)
	_ = gen.RMATStream(n, m, gen.DefaultRMAT, maxWeight, seed, func(src, dst graph.VertexID, w float32) error {
		edges = append(edges, Edge{Src: src, Dst: dst, Weight: w})
		return nil
	})
	return edges
}

// rmatParams names the skew parameters of every generated graph.
func rmatParams() (a, b, c float64) { return gen.DefaultRMAT.A, gen.DefaultRMAT.B, gen.DefaultRMAT.C }

func buildGraph(n int, edges []Edge) (*Graph, error) { return graph.Build(n, edges) }

func withEdges(g *Graph, added []Edge) (*Graph, error) {
	return graph.WithEdges(g, added, g.NumVertices())
}

func saveSLFG(path string, g *Graph) error { return loader.SaveFile(path, g) }

// openView opens a graph file the way slfe-run does: .slfg parses into a
// heap CSR, .slfc is mmap'd.
func openView(path string) (View, func() error, error) { return loader.OpenView(path, 0) }

func writeSLFC(path string, g View) error { return store.Write(path, g) }

func openSLFC(path string) (View, func() error, error) {
	g, err := store.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return g, g.Close, nil
}

// openSLFCOutOfCore opens the file with a one-byte budget, which forces the
// pread-per-block mode.
func openSLFCOutOfCore(path string) (View, func() error, error) {
	g, err := store.OpenBudget(path, 1)
	if err != nil {
		return nil, nil, err
	}
	if !g.OutOfCore() {
		g.Close()
		return nil, nil, errors.New("store: budget of 1 byte did not select out-of-core mode")
	}
	return g, g.Close, nil
}

// scanEdges walks every adjacency list of one direction through a fresh
// cursor, reading every neighbour id, and returns the number of edges seen
// and the sum of the ids: the loop the kernels run, with no compute in it.
func scanEdges(g View, in bool) (seen int64, sum uint64) {
	cur := g.Cursor()
	for v := 0; v < g.NumVertices(); v++ {
		ids := cur.OutNeighbors(graph.VertexID(v))
		if in {
			ids = cur.InNeighbors(graph.VertexID(v))
		}
		seen += int64(len(ids))
		for _, id := range ids {
			sum += uint64(id)
		}
	}
	return seen, sum
}

// ---- rrg, partition, ws ---------------------------------------------------

func defaultRoots(g View) []uint32 { return rrg.DefaultRoots(g) }

func generateGuidance(g View, roots []uint32, threads int) *rrg.Guidance {
	sched := ws.New(threads, true)
	defer sched.Close()
	return rrg.Generate(g, roots, sched)
}

func partitionChunk(g View, nodes int) error {
	_, err := partition.NewChunked(g, nodes)
	return err
}

func newScheduler(threads int) *ws.Scheduler { return ws.New(threads, true) }

// ---- apps, cluster, core --------------------------------------------------

// execCfg selects how one program run is executed.
type execCfg struct {
	Threads int
	RR      bool
	// Ranks > 1 runs over caller-visible transports (TCP or the in-process
	// hub) with the adaptive codec and adaptive delta-sync, overlapped.
	Ranks int
	TCP   bool
	// CkptDir, when set, checkpoints every 4 supersteps into it.
	CkptDir string
	// TrackLastChange records the superstep of each vertex's last update.
	TrackLastChange bool
}

// runOut is what the benchmark keeps of one program run.
type runOut struct {
	Values         []float64
	LastChange     []int32
	Supersteps     int
	PushSupersteps int
	Computations   int64
	Updates        int64
	Steals         int64
	BytesSent      int64
	MsgsSent       int64
}

func execPR(g View, iters int, c execCfg) (*runOut, error) {
	return exec(g, "pr", 0, iters, apps.PageRank(iters), c)
}

func execSSSP(g View, root uint32, c execCfg) (*runOut, error) {
	return exec(g, "sssp", root, 0, apps.SSSP(root), c)
}

func exec(g View, key string, root uint32, iters int, prog *core.Program[float64], c execCfg) (*runOut, error) {
	opt := cluster.Options{Nodes: 1, Threads: c.Threads, Stealing: true, RR: c.RR, TrackLastChange: c.TrackLastChange}
	if c.Ranks <= 1 && !c.TrackLastChange {
		// The path slfe-run takes.
		app, ok := apps.LookupRunnable(key, "f64")
		if !ok {
			return nil, fmt.Errorf("apps: %s:f64 is not registered", key)
		}
		out, err := app.Build(root, iters).Execute(g, opt)
		if err != nil {
			return nil, err
		}
		ro := &runOut{Values: out.Values, Supersteps: out.Iterations,
			BytesSent: out.Comm.BytesSent, MsgsSent: out.Comm.MessagesSent}
		ro.count(out.PerWorker)
		return ro, nil
	}
	var res *cluster.RunResult[float64]
	var err error
	if c.Ranks <= 1 {
		res, err = cluster.Execute(g, prog, opt)
	} else {
		opt.Codec = compress.Adaptive{}
		opt.Sync = core.SyncAdaptive
		if c.CkptDir != "" {
			opt.Ckpt = &ckpt.Manager{Dir: c.CkptDir, Every: 4}
		}
		var ts []comm.Transport
		if c.TCP {
			ts, err = comm.LoopbackTCP(c.Ranks, 10*time.Second)
		} else {
			ts, err = comm.NewLocalGroup(c.Ranks)
		}
		if err != nil {
			return nil, err
		}
		res, err = cluster.ExecuteOver(g, prog, opt, ts) // closes ts
	}
	if err != nil {
		return nil, err
	}
	ro := &runOut{Values: res.Result.Float64s(), LastChange: res.Result.LastChange,
		Supersteps: res.Result.Iterations,
		BytesSent:  res.Comm.BytesSent, MsgsSent: res.Comm.MessagesSent}
	ro.count(res.PerWorker)
	return ro, nil
}

// count folds the exact per-superstep counters of every worker.
func (ro *runOut) count(workers []*metrics.Run) {
	for rank, w := range workers {
		ro.Steals += w.Steals
		for _, it := range w.Iters {
			ro.Computations += it.Computations
			ro.Updates += it.Updates
			if rank == 0 && it.Mode == metrics.Push {
				ro.PushSupersteps++ // ranks move in lockstep
			}
		}
	}
}

// pageRanks converts the PR program's stored contributions to ranks, the
// form the reference returns.
func pageRanks(g View, contribs []float64) []float64 { return apps.PageRankScores(g, contribs) }

func refPageRank(g *Graph, iters int) []float64 { return apps.RefPageRank(g, iters) }

func refSSSP(g *Graph, root uint32) []float64 { return apps.RefSSSP(g, root) }

// sessionRuns times the same SSSP run twice: through Execute, which builds
// and tears down its transports and worker pool, and on a resident session.
func sessionRuns(g View, root uint32, threads int) (oneShot, resident time.Duration, err error) {
	opt := cluster.Options{Nodes: 1, Threads: threads, Stealing: true, RR: true}
	t := time.Now()
	if _, err = cluster.Execute(g, apps.SSSP(root), opt); err != nil {
		return 0, 0, err
	}
	oneShot = time.Since(t)
	s, err := cluster.NewSession(1, threads, true)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	if _, err = cluster.ExecuteSession(s, g, apps.SSSP(root), opt); err != nil { // spawns the pool
		return 0, 0, err
	}
	t = time.Now()
	if _, err = cluster.ExecuteSession(s, g, apps.SSSP(root), opt); err != nil {
		return 0, 0, err
	}
	return oneShot, time.Since(t), nil
}

// sessionPR times PR on a resident session with guidance already in hand:
// the engine work a service Apply cannot avoid.
func sessionPR(g *Graph, iters int, gd *rrg.Guidance) (time.Duration, error) {
	s, err := cluster.NewSession(1, 1, false)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	opt := cluster.Options{RR: true, Guidance: gd}
	if _, err := cluster.ExecuteSession(s, g, apps.PageRank(iters), opt); err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := cluster.ExecuteSession(s, g, apps.PageRank(iters), opt); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// ---- compress ---------------------------------------------------------------

type codec = compress.Codec

func codecs() map[string]codec {
	return map[string]codec{"raw": compress.Raw{}, "adaptive": compress.Adaptive{}}
}

// ---- comm -----------------------------------------------------------------

func loopbackTCP(n int) ([]comm.Transport, error) { return comm.LoopbackTCP(n, 10*time.Second) }

func localGroup(n int) ([]comm.Transport, error) { return comm.NewLocalGroup(n) }

// spmd runs fn once per rank over the transports, closes them, and returns
// the first error. A failing rank aborts the group so its peers unblock.
func spmd(ts []comm.Transport, fn func(rank int, c *Comm) error) error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for rank := range ts {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if errs[rank] = fn(rank, comm.NewComm(ts[rank])); errs[rank] != nil {
				comm.Abort(ts[rank])
			}
		}(rank)
	}
	wg.Wait()
	for _, t := range ts {
		t.Close()
	}
	return errors.Join(errs...)
}

const sumOp = comm.OpSum

// ---- ckpt -----------------------------------------------------------------

// ckptRoundTrip loads rank 0's shard of the latest complete checkpoint in
// dir and saves it again into saveDir, timing both.
func ckptRoundTrip(dir, saveDir string, ranks int) (load, save time.Duration, err error) {
	m := &ckpt.Manager{Dir: dir, Every: 4}
	iter, err := m.LatestComplete(ranks)
	if err != nil {
		return 0, 0, err
	}
	if iter < 0 {
		return 0, 0, errors.New("ckpt: the run left no complete checkpoint")
	}
	t := time.Now()
	st, err := m.Load(iter, 0)
	if err != nil {
		return 0, 0, err
	}
	load = time.Since(t)
	t = time.Now()
	if err := (&ckpt.Manager{Dir: saveDir, Every: 4}).Save(0, st); err != nil {
		return 0, 0, err
	}
	return load, time.Since(t), nil
}

// ---- service --------------------------------------------------------------

// server is one resident service driven through its HTTP handler in-process:
// no sockets, so the numbers are the serving layer's, not the loopback
// stack's.
type server struct {
	svc *service.Service
	h   http.Handler
}

func newServer(g *Graph) (*server, error) {
	svc, err := service.New(g, service.Config{Nodes: 1, Threads: 1, Sessions: 1, RR: true})
	if err != nil {
		return nil, err
	}
	return &server{svc: svc, h: service.Handler(svc)}, nil
}

func (s *server) register(app, domain string, root uint32, iters int) error {
	_, err := s.svc.Register(app, domain, root, iters)
	return err
}

// do serves one request and returns the status and body.
func (s *server) do(method, target, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func (s *server) cacheCounts() (hits, misses int64) {
	st := s.svc.Cache().Stats()
	return st.Hits, st.Misses
}

func (s *server) throttled() int64 {
	st := s.svc.Admission().Stats()
	return st.ThrottledReads + st.ThrottledMutations
}

func (s *server) close() error { return s.svc.Close() }
