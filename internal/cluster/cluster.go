// Package cluster orchestrates SPMD execution of the SLFE engine across a
// group of workers ("nodes" in the paper's 8-node cluster). Workers run as
// goroutines over an in-process transport by default — the engine itself is
// transport-agnostic, so the same code runs over TCP (see the components
// example) — and every cross-worker byte flows through internal/comm.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/compress"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/metrics"
	"slfe/internal/partition"
	"slfe/internal/rrg"
)

// Options configures a cluster execution.
type Options struct {
	// Nodes is the simulated cluster size (default 1).
	Nodes int
	// Threads per node (<=0: GOMAXPROCS).
	Threads int
	// Stealing enables the intra-node work-stealing scheduler.
	Stealing bool
	// RR enables redundancy reduction.
	RR bool
	// Guidance, when non-nil, is the guidance this run uses, skipping
	// preprocessing. Nil lets runSession choose by its one rule.
	Guidance *rrg.Guidance
	// TrackLastChange records per-vertex last-update iterations.
	TrackLastChange bool
	// DenseDivisor overrides the push/pull switch threshold.
	DenseDivisor int64
	// Codec selects the delta-sync wire codec (nil: compress.Raw).
	Codec compress.Codec
	// Sync selects the delta-sync strategy (dense AllGather, sparse
	// per-peer exchange, or adaptive per-superstep selection); see
	// core.Config.Sync.
	Sync core.SyncStrategy
	// SparseDivisor tunes the adaptive density threshold; see
	// core.Config.SparseDivisor.
	SparseDivisor int64
	// SerialSync disables the overlapped superstep pipeline and runs
	// delta-sync strictly after the compute barrier; see
	// core.Config.SerialSync.
	SerialSync bool
	// MeasureAllocs records per-superstep heap-allocation deltas; see
	// core.Config.MeasureAllocs (only attributable with Nodes=1).
	MeasureAllocs bool
	// Rebalance enables dynamic inter-node boundary adjustment; see
	// core.Config.Rebalance.
	Rebalance bool
	// RebalanceEvery is the rebalance window in iterations (default 4).
	RebalanceEvery int
	// RebalanceDamping in (0,1] scales boundary moves (default 0.5).
	RebalanceDamping float64
	// Ckpt enables superstep checkpointing; see core.Config.Ckpt.
	Ckpt *ckpt.Manager
	// FT enables rank-failure tolerance: heartbeat failure detection,
	// buddy-replicated checkpoints and automatic recovery onto the
	// surviving ranks, as an epoch loop around the session run (recover.go).
	// Only Execute can host it — the loop owns each epoch's transport group,
	// so ExecuteOver and ExecuteSession reject it. Incompatible with Ckpt
	// (the loop owns one private checkpoint manager per rank) and with
	// Rebalance.
	FT *FTOptions
}

// validate rejects option combinations that cannot run, before any
// transport, pool or goroutine exists. ownsTransports is true only for
// Execute, the one entry point whose transport group FT may replace per
// epoch. Every entry point calls it first, so a given mistake reads the
// same wherever it is made.
func (o *Options) validate(ownsTransports bool) error {
	if o.Rebalance && o.Ckpt != nil {
		return errors.New("cluster: Options.Ckpt and Options.Rebalance are mutually exclusive: owned ranges are not part of a checkpoint shard")
	}
	if o.Rebalance && o.Sync != core.SyncDense {
		return errors.New("cluster: Options.Sync (sparse or adaptive) and Options.Rebalance are mutually exclusive: per-vertex destination sets assume stable ownership; use SyncDense")
	}
	ft := o.FT
	if ft == nil {
		return nil
	}
	if o.Ckpt != nil {
		return errors.New("cluster: Options.FT and Options.Ckpt are mutually exclusive: recovery owns one private checkpoint manager per rank; leave Ckpt nil")
	}
	if o.Rebalance {
		return errors.New("cluster: Options.FT and Options.Rebalance are mutually exclusive: recovery needs a static partition per epoch")
	}
	if ft.Rejoin && !ft.TCPLoopback {
		return errors.New("cluster: Options.FT.Rejoin requires Options.FT.TCPLoopback: a restarted rank redials a real mesh")
	}
	if ft.CkptDir == "" {
		return errors.New("cluster: Options.FT.CkptDir is required")
	}
	if !ownsTransports {
		return errors.New("cluster: Options.FT cannot run on a session or on caller-provided transports (ExecuteSession, ExecuteOver): recovery replaces the transport group every epoch; use Execute")
	}
	return nil
}

// RunResult is the outcome of a cluster execution over property type V.
type RunResult[V comparable] struct {
	// Result is worker 0's result; values are synchronised, so it is the
	// cluster result.
	Result *core.Result[V]
	// PerWorker holds each worker's metrics.
	PerWorker []*metrics.Run
	// Guidance is the RRG used (nil when RR is off). Except for an arith
	// program with Roots it may be shared with other runs over the same
	// graph: Clone it before Update.
	Guidance *rrg.Guidance
	// PreprocessTime is the RRG generation cost this run paid: zero when RR
	// is off, when Options.Guidance was given, and when the graph's shared
	// slot already held the guidance (generated by an earlier run, carried
	// by rrg.Carry, or read from a .slfc file; Guidance.GenTime keeps the
	// cost of a generation, and is 0 for a file's).
	PreprocessTime time.Duration
	// Comm aggregates message/byte counts over all workers.
	Comm comm.Stats
	// Elapsed is the wall-clock execution time (excluding preprocessing).
	Elapsed time.Duration
	// Recovery describes failure detection and recovery when the run used
	// Options.FT (nil otherwise).
	Recovery *RecoveryReport
}

// Execute partitions g, optionally generates RR guidance, and runs the
// program on an in-process cluster: open a session of opt.Nodes ranks, run,
// close. With opt.FT the run is wrapped in the recovery epoch loop.
func Execute[V comparable](g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	if err := opt.validate(true); err != nil {
		return nil, err
	}
	if opt.FT != nil {
		return executeFT(g, p, opt)
	}
	s, err := NewSession(opt.Nodes, opt.Threads, opt.Stealing)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return runSession(s, g, p, opt, nil)
}

// ExecuteOver runs the program over caller-provided transports, one per
// rank — e.g. a loopback TCP mesh from comm.LoopbackTCP — as a session
// opened over them for this one run (opt.Nodes is taken from the transport
// count). The transports are closed when every rank has finished, never
// earlier: a premature close can reset connections still carrying a slower
// peer's final collective results.
func ExecuteOver[V comparable](g graph.View, p *core.Program[V], opt Options, transports []comm.Transport) (*RunResult[V], error) {
	if err := opt.validate(false); err != nil {
		for _, t := range transports {
			t.Close()
		}
		return nil, err
	}
	s, err := NewSessionOver(transports, opt.Threads, opt.Stealing)
	if err != nil {
		return nil, err // no transports: nothing to close
	}
	defer s.Close()
	return runSession(s, g, p, opt, nil)
}

// epochPlan is what the recovery epoch loop dictates to one epoch's session
// run, per epoch rank where it differs by rank; a plain run has none.
type epochPlan struct {
	ckpt     []*ckpt.Manager // each rank's private checkpoint manager
	restore  []*ckpt.State   // each rank's restore state (nil entry: cold start)
	bounds   []uint32        // partition boundaries folded from the failed epoch (nil: chunk g)
	progress func(iter int)  // per-superstep hook, called by every rank
}

// runSession is the one execution body: partition, guidance, one engine
// goroutine per session rank over the session's resident communicators and
// scheduler pools. The caller serialises runs on s.
//
// It is also the one place guidance is chosen, by one rule: opt.Guidance
// when handed in; else, for an arith program that declares Roots, guidance
// generated from those roots — its information originates only there, so
// finish early needs levels measured from them; else the graph's shared
// default-root guidance (rrg.Shared). Start late is sound under any
// guidance, and PageRank-like programs are informative everywhere from
// iteration 0, which the default roots describe.
func runSession[V comparable](s *Session, g graph.View, p *core.Program[V], opt Options, plan *epochPlan) (*RunResult[V], error) {
	nodes := s.Nodes()
	var part *partition.Chunked
	var err error
	if plan != nil && plan.bounds != nil {
		part, err = partition.FromBounds(plan.bounds)
	} else {
		part, err = partition.NewChunked(g, nodes)
	}
	if err != nil {
		return nil, err
	}

	out := &RunResult[V]{}
	if opt.RR {
		fresh := false
		switch {
		case opt.Guidance != nil:
			out.Guidance = opt.Guidance
		case p.Agg == core.Arith && len(p.Roots) > 0:
			out.Guidance, fresh = rrg.Generate(g, p.Roots, s.scheds[0]), true
		default:
			out.Guidance, fresh = rrg.Shared(g, s.scheds[0])
		}
		if fresh {
			out.PreprocessTime = out.Guidance.GenTime
		}
	}

	results := make([]*core.Result[V], nodes)
	errs := make([]error, nodes)
	// Transport counters are cumulative over the transport's lifetime;
	// resident sessions reuse transports, so report this run's delta.
	before := make([]comm.Stats, nodes)
	for i, t := range s.transports {
		before[i] = t.Stats()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := core.Config{
				Graph:            g,
				Comm:             s.comms[rank],
				Part:             part,
				RR:               opt.RR,
				Guidance:         out.Guidance,
				Sched:            s.scheds[rank],
				DenseDivisor:     opt.DenseDivisor,
				TrackLastChange:  opt.TrackLastChange,
				Codec:            opt.Codec,
				Sync:             opt.Sync,
				SparseDivisor:    opt.SparseDivisor,
				SerialSync:       opt.SerialSync,
				MeasureAllocs:    opt.MeasureAllocs,
				Rebalance:        opt.Rebalance,
				RebalanceEvery:   opt.RebalanceEvery,
				RebalanceDamping: opt.RebalanceDamping,
				Ckpt:             opt.Ckpt,
			}
			if plan != nil {
				cfg.Ckpt, cfg.Restore, cfg.Progress = plan.ckpt[rank], plan.restore[rank], plan.progress
			}
			eng, err := core.New[V](cfg)
			if err != nil {
				errs[rank] = err
				comm.Abort(s.transports[rank])
				return
			}
			defer eng.Close()
			results[rank], errs[rank] = eng.Run(p)
			if errs[rank] != nil {
				// Unblock peers waiting on this rank's collectives.
				comm.Abort(s.transports[rank])
			}
		}(rank)
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", rank, err)
		}
	}
	out.Result = results[0]
	out.PerWorker = make([]*metrics.Run, nodes)
	for rank, r := range results {
		out.PerWorker[rank] = r.Metrics
	}
	for i, t := range s.transports {
		st := t.Stats()
		out.Comm.MessagesSent += st.MessagesSent - before[i].MessagesSent
		out.Comm.BytesSent += st.BytesSent - before[i].BytesSent
	}
	return out, nil
}

// SPMD runs fn on every rank of a fresh in-process group and returns the
// first error.
func SPMD(size int, fn func(rank int, cm *comm.Comm) error) error {
	transports, err := comm.NewLocalGroup(size)
	if err != nil {
		return err
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer transports[rank].Close()
			errs[rank] = fn(rank, comm.NewComm(transports[rank]))
			if errs[rank] != nil {
				// Unblock peers waiting on this rank's collectives.
				comm.Abort(transports[rank])
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: rank %d: %w", rank, err)
		}
	}
	return nil
}
