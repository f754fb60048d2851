package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/rrg"
	"slfe/internal/ws"
)

// Config fixes the resident cluster's topology and execution options. The
// topology cannot change after New: sessions pin their transport group.
type Config struct {
	// Nodes is the resident cluster size (default 1).
	Nodes int
	// Threads per node (<=0: GOMAXPROCS).
	Threads int
	// RR enables redundancy reduction (finish early, for arith programs);
	// while an arith program is registered, the graph's shared guidance is
	// then carried across insert-only batches (rrg.Carry).
	RR bool
	// Sessions bounds how many programs execute concurrently: the resident
	// session pool's size (default 1, the pre-pool serial behaviour).
	Sessions int
	// CacheCapacity bounds the version-keyed read cache (entries; default
	// 1024, <0 disables caching).
	CacheCapacity int
	// MutationQueue bounds how many mutation/registration requests may wait
	// for the writer before the HTTP layer answers 429 (default 4).
	MutationQueue int
	// ReadInflight bounds concurrent read requests per endpoint before the
	// HTTP layer answers 429 (default 256).
	ReadInflight int
}

// defaults resolves the zero-value knobs.
func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 1024
	}
	if c.MutationQueue <= 0 {
		c.MutationQueue = 4
	}
	if c.ReadInflight <= 0 {
		c.ReadInflight = 256
	}
}

// Program is one registered (application, domain) pairing resident in a
// snapshot, together with its latest result and warm-start state.
type Program struct {
	// Key / Domain identify the registry pairing ("sssp", "f64").
	Key    string
	Domain string
	// NeedsSym marks programs executing on the symmetrised graph.
	NeedsSym bool
	// Outcome is the latest execution result on the snapshot's graph.
	Outcome *apps.Outcome
	// Warm reports whether the latest result came from the incremental
	// path (ExecuteWarm after an insert-only batch) rather than a cold
	// registration or full-fallback run.
	Warm bool

	runner apps.Runnable
	resume *apps.Resume
	arith  bool // core.Arith: its re-executions are cold runs that read guidance
}

// Stats are cumulative mutation counters, snapshotted per version.
type Stats struct {
	// Batches counts applied mutation batches.
	Batches int64
	// EdgesAdded / EdgesRemoved count applied edge mutations.
	EdgesAdded   int64
	EdgesRemoved int64
	// FullRebuilds counts batches that took the deletion fallback (cold
	// re-runs over a graph whose guidance is generated afresh).
	FullRebuilds int64
	// Incremental counts insert-only batches: warm re-execution, plus
	// carried guidance while an arith program is registered.
	Incremental int64
}

// Snapshot is one immutable graph version with its program results. Readers
// load a snapshot once and serve every field from it; a concurrent Apply
// swaps in a successor without disturbing them.
type Snapshot struct {
	// Version increments with every applied mutation batch and every
	// registration.
	Version uint64
	// Graph is the base directed graph at this version.
	Graph *graph.Graph
	// Sym is the symmetrised graph (nil until a NeedsSym program
	// registers; then maintained in lockstep with Graph).
	Sym *graph.Graph
	// Programs maps "key:domain" to the resident program state.
	Programs map[string]*Program
	// Stats are the cumulative mutation counters as of this version.
	Stats Stats
}

// hasArith reports whether an arith program is registered.
func (sn *Snapshot) hasArith() bool {
	for _, p := range sn.Programs {
		if p.arith {
			return true
		}
	}
	return false
}

// Service is the resident graph engine: a pool of long-lived cluster
// sessions executing registered programs concurrently, an atomically
// swapped snapshot chain, a writer lock serialising mutations and
// registrations, and a version-keyed read cache. Liveness (Healthy) and
// reads (Snapshot, the cache) never touch the writer lock.
type Service struct {
	mu     sync.Mutex // writer lock: Apply/Register snapshot succession
	cfg    Config
	pool   *cluster.SessionPool
	snap   atomic.Pointer[Snapshot]
	closed atomic.Bool
	cache  *Cache
	adm    *Admission
}

// New builds a service hosting g.
func New(g *graph.Graph, cfg Config) (*Service, error) {
	if g == nil {
		return nil, errors.New("service: nil graph")
	}
	cfg.defaults()
	pool, err := cluster.NewSessionPool(cfg.Sessions, cfg.Nodes, cfg.Threads)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		pool:  pool,
		cache: NewCache(cfg.CacheCapacity),
		adm:   NewAdmission(cfg.MutationQueue, cfg.ReadInflight),
	}
	s.snap.Store(&Snapshot{Version: 1, Graph: g, Programs: map[string]*Program{}})
	return s, nil
}

// Snapshot returns the current immutable version. Callers may hold it as
// long as they like; it never mutates.
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// Healthy reports whether the resident pool can execute runs. Served from
// atomics: liveness never waits on the writer lock, so an orchestrator's
// probe cannot time out behind a multi-second mutation batch.
func (s *Service) Healthy() bool {
	return !s.closed.Load() && s.pool.Healthy()
}

// Cache returns the version-keyed read cache (never nil).
func (s *Service) Cache() *Cache { return s.cache }

// Admission returns the admission controller (never nil).
func (s *Service) Admission() *Admission { return s.adm }

// PoolStats snapshots the session pool's lifecycle counters.
func (s *Service) PoolStats() cluster.PoolStats { return s.pool.Stats() }

// Close shuts the session pool down, waiting for in-flight runs. Idempotent.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.pool.Close()
}

// runOptions is the per-run option base derived from the fixed config.
func (s *Service) runOptions() cluster.Options {
	return cluster.Options{
		Nodes:   s.cfg.Nodes,
		Threads: s.cfg.Threads,
		RR:      s.cfg.RR,
	}
}

// ProgramID names a (key, domain) pairing in a snapshot's program map.
func ProgramID(key, domain string) string { return key + ":" + domain }

// Register adds a registry (key, domain) pairing to the service, runs it
// cold on the current graph, and publishes a new version carrying its
// result and warm-start state. root/iters parameterise the program like the
// CLI flags of the same names.
func (s *Service) Register(key, domain string, root graph.VertexID, iters int) (*Snapshot, error) {
	return s.RegisterCtx(context.Background(), key, domain, root, iters)
}

// RegisterCtx is Register bounded by ctx: a cancelled context releases the
// caller while it is still queueing for a pooled session, so a wedged run
// elsewhere cannot pin registrations forever. Cancellation is only observed
// at the session-acquire point — once the cold run starts it completes.
func (s *Service) RegisterCtx(ctx context.Context, key, domain string, root graph.VertexID, iters int) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errors.New("service: closed")
	}
	cur := s.snap.Load()
	id := ProgramID(key, domain)
	if _, ok := cur.Programs[id]; ok {
		return nil, fmt.Errorf("service: %s is already registered", id)
	}
	// Validate the root unconditionally, before any runner is built: root 0
	// is a real root like any other (it is out of range on an empty graph),
	// and a runner must never be constructed over an invalid one.
	if int(root) >= cur.Graph.NumVertices() {
		return nil, fmt.Errorf("service: root %d outside [0, %d)", root, cur.Graph.NumVertices())
	}
	entry, ok := apps.LookupRunnable(key, domain)
	if !ok {
		return nil, fmt.Errorf("service: unknown application %q for domain %q", key, domain)
	}
	runner := entry.Build(root, iters)

	sym := cur.Sym
	execG := cur.Graph
	if entry.NeedsSym {
		if sym == nil {
			sym = apps.Symmetrize(cur.Graph)
		}
		execG = sym
	}
	sess, err := s.pool.AcquireCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("service: registration run for %s: %w", id, err)
	}
	out, resume, err := runner.ExecuteIn(sess, execG, s.runOptions())
	s.pool.Release(sess) // heals the session if the run poisoned it
	if err != nil {
		return nil, fmt.Errorf("service: registration run for %s failed: %w", id, err)
	}

	next := s.successor(cur)
	next.Sym = sym
	next.Programs[id] = &Program{
		Key: key, Domain: domain, NeedsSym: entry.NeedsSym,
		Outcome: out, runner: runner, resume: resume, arith: entry.Agg == core.Arith,
	}
	s.snap.Store(next)
	s.cache.InvalidateBelow(next.Version)
	return next, nil
}

// successor starts the next version as a copy of cur with a fresh program
// map (entries are shared until replaced).
func (s *Service) successor(cur *Snapshot) *Snapshot {
	next := &Snapshot{
		Version:  cur.Version + 1,
		Graph:    cur.Graph,
		Sym:      cur.Sym,
		Programs: make(map[string]*Program, len(cur.Programs)+1),
		Stats:    cur.Stats,
	}
	for id, p := range cur.Programs {
		next.Programs[id] = p
	}
	return next
}

// Apply executes one mutation batch: the graph (and symmetrised twin) move
// to the next version, an insertion batch carries each graph's shared
// guidance along (rrg.Carry) when an arith program is registered, and every
// registered program re-executes — warm for min/max insertions, cold
// otherwise. Programs re-execute concurrently over the session pool (see
// reexecuteAll); the snapshot swaps only after every program re-ran, so
// readers never observe a version whose results lag its graph. Deletions
// take the fallback path: cold re-runs, whose first arith RR run generates
// the new version's guidance.
func (s *Service) Apply(b *Batch) (*Snapshot, error) {
	return s.ApplyCtx(context.Background(), b)
}

// ApplyCtx is Apply bounded by ctx: re-executions queueing for a pooled
// session give up with the context's error when it is cancelled first, so
// one wedged run cannot pin every subsequent mutation. Cancellation is only
// observed while queueing — an in-flight re-execution completes, and the
// batch as a whole still publishes all-or-nothing.
func (s *Service) ApplyCtx(ctx context.Context, b *Batch) (*Snapshot, error) {
	if b == nil || (b.AddVertices == 0 && len(b.Adds) == 0 && len(b.Deletes) == 0) {
		return nil, errors.New("service: empty mutation batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errors.New("service: closed")
	}
	cur := s.snap.Load()
	newN := cur.Graph.NumVertices() + b.AddVertices

	full := len(b.Deletes) > 0
	var g2 *graph.Graph
	var removed int64
	var err error
	if full {
		g2, removed, err = graph.WithoutEdges(cur.Graph, b.Deletes)
		if err != nil {
			return nil, err
		}
		g2, err = graph.WithEdges(g2, b.Adds, newN)
	} else {
		g2, err = graph.WithEdges(cur.Graph, b.Adds, newN)
	}
	if err != nil {
		return nil, err
	}

	// Maintain the symmetrised twin: mirrored adds keep it bit-identical
	// to Symmetrize(g2) (both builders sort adjacency); deletions rebuild.
	var sym2 *graph.Graph
	var symAdds []graph.Edge
	if cur.Sym != nil {
		if full {
			sym2 = apps.Symmetrize(g2)
		} else {
			symAdds = make([]graph.Edge, 0, 2*len(b.Adds))
			for _, e := range b.Adds {
				symAdds = append(symAdds, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
			}
			sym2, err = graph.WithEdges(cur.Sym, symAdds, newN)
			if err != nil {
				return nil, err
			}
		}
	}

	next := s.successor(cur)
	next.Graph = g2
	next.Sym = sym2
	next.Stats.Batches++
	next.Stats.EdgesAdded += int64(len(b.Adds))
	next.Stats.EdgesRemoved += removed
	if full {
		next.Stats.FullRebuilds++
	} else {
		next.Stats.Incremental++
		if s.cfg.RR && cur.hasArith() {
			// Only an arith re-execution reads guidance (a min/max run reads
			// none, and the symmetrised graph serves only CC, so its guidance
			// is never carried), and a later cold arith run (a registration,
			// a deletion fallback) generates through rrg.Shared. Carried
			// before any program runs on the new version, so every run over
			// it shares a single Update.
			sched := ws.New(s.cfg.Threads, true)
			rrg.Carry(cur.Graph, g2, b.Adds, sched)
			sched.Close()
		}
	}

	reexecuted, err := s.reexecuteAll(ctx, cur, g2, sym2, symAdds, b.Adds, full)
	if err != nil {
		return nil, fmt.Errorf("service: re-execution at version %d failed: %w", next.Version, err)
	}
	for id, np := range reexecuted {
		next.Programs[id] = np
	}

	s.snap.Store(next)
	s.cache.InvalidateBelow(next.Version)
	return next, nil
}

// reexecute moves one program to the mutated graph on the given session.
// Guidance is the cluster layer's choice either way: the new version's
// shared slot holds what rrg.Carry moved there, or the first arith RR run
// over the version generates it (min/max runs read none).
func (s *Service) reexecute(sess *cluster.Session, p *Program, g2, sym2 *graph.Graph, symAdds, adds []graph.Edge, full bool) (*Program, error) {
	execG, execAdds := g2, adds
	if p.NeedsSym {
		execG, execAdds = sym2, symAdds
	}
	np := &Program{Key: p.Key, Domain: p.Domain, NeedsSym: p.NeedsSym, runner: p.runner, arith: p.arith}
	var err error
	if full {
		// Deletions can grow distances: monotone warm-starts lose their
		// correctness argument, so re-run cold.
		np.Outcome, np.resume, err = p.runner.ExecuteIn(sess, execG, s.runOptions())
	} else {
		np.Outcome, np.resume, err = p.resume.ExecuteWarm(sess, execG, execAdds, s.runOptions())
		np.Warm = true
	}
	if err != nil {
		return nil, err
	}
	return np, nil
}
