// Package cluster orchestrates SPMD execution of the SLFE engine across a
// group of workers ("nodes" in the paper's 8-node cluster). Workers run as
// goroutines over an in-process transport by default — the engine itself is
// transport-agnostic, so the same code runs over TCP (see the components
// example) — and every cross-worker byte flows through internal/comm.
package cluster

import (
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
	// Stealing chose whether each rank's scheduler steals work. Every
	// scheduler steals now.
	//
	// Deprecated: has no effect.
	Stealing bool
	// RR enables redundancy reduction: finish early, for arith programs
	// (a min/max run is the same with it on or off).
	RR bool
	// Guidance, when non-nil, is the guidance an arith RR run uses,
	// skipping preprocessing. Nil lets runSession choose by its one rule.
	// A min/max run ignores it.
	Guidance *rrg.Guidance
	// TrackLastChange records per-vertex last-update iterations.
	TrackLastChange bool
	// DenseDivisor overrides the push/pull switch threshold.
	DenseDivisor int64
	// Codec selects the delta-sync wire codec (nil: compress.Raw).
	Codec compress.Codec
	// Sync named the delta-sync strategy. Delta-sync always broadcasts
	// every changed value to every rank now.
	//
	// Deprecated: has no effect.
	Sync int
	// MeasureAllocs records per-superstep heap-allocation deltas; see
	// core.Config.MeasureAllocs (only attributable with Nodes=1).
	MeasureAllocs bool
	// Ckpt enables superstep checkpointing; see core.Config.Ckpt. With
	// Ckpt.Resume the run restarts from Ckpt.MergeLatest, merged once for
	// all ranks.
	Ckpt *ckpt.Manager
}

// RunResult is the outcome of a cluster execution over property type V.
type RunResult[V comparable] struct {
	// Result is worker 0's result; values are synchronised, so it is the
	// cluster result.
	Result *core.Result[V]
	// PerWorker holds each worker's metrics.
	PerWorker []*metrics.Run
	// Guidance is the RRG finish early used: nil when RR is off and for
	// every min/max program, which reads none. Except for an arith program
	// with Roots it may be shared with other runs over the same graph:
	// Clone it before Update.
	Guidance *rrg.Guidance
	// PreprocessTime is the RRG generation cost this run paid: zero when
	// Guidance is nil, when Options.Guidance was given, and when the
	// graph's shared slot already held the guidance (generated by an
	// earlier run, carried by rrg.Carry, or read from a .slfc file;
	// Guidance.GenTime keeps the cost of a generation, and is 0 for a
	// file's).
	PreprocessTime time.Duration
	// Comm aggregates message/byte counts over all workers.
	Comm comm.Stats
	// Elapsed is the wall-clock execution time (excluding preprocessing).
	Elapsed time.Duration
}

// Execute partitions g, picks guidance for an arith RR run, and runs the
// program on an in-process cluster: open a session of opt.Nodes ranks, run,
// close.
func Execute[V comparable](g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	s, err := NewSession(opt.Nodes, opt.Threads, true)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return runSession(s, g, p, opt)
}

// ExecuteOver runs the program over caller-provided transports, one per
// rank — e.g. a loopback TCP mesh from comm.LoopbackTCP — as a session
// opened over them for this one run (opt.Nodes is taken from the transport
// count). The transports are closed when every rank has finished, never
// earlier: a premature close can reset connections still carrying a slower
// peer's final collective results.
func ExecuteOver[V comparable](g graph.View, p *core.Program[V], opt Options, transports []comm.Transport) (*RunResult[V], error) {
	s, err := NewSessionOver(transports, opt.Threads)
	if err != nil {
		return nil, err // no transports: nothing to close
	}
	defer s.Close()
	return runSession(s, g, p, opt)
}

// runSession is the one execution body: partition, guidance, one engine
// goroutine per session rank over the session's resident communicators and
// scheduler pools. The caller serialises runs on s. It also merges the
// checkpoint a Ckpt.Resume run restarts from, once for all ranks.
//
// It is also the one place guidance is chosen. Only an arith RR run (finish
// early) reads guidance, by one rule: opt.Guidance when handed in; else,
// for a program that declares Roots, guidance generated from those roots —
// its information originates only there, so finish early needs levels
// measured from them; else the graph's shared default-root guidance
// (rrg.Shared): PageRank-like programs are informative everywhere from
// iteration 0, which the default roots describe. A min/max run gets none
// and runs with RR off in the engine.
func runSession[V comparable](s *Session, g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	nodes := s.Nodes()
	part, err := partition.NewChunked(g, nodes)
	if err != nil {
		return nil, err
	}
	var restore *ckpt.State
	if m := opt.Ckpt; m != nil && m.Resume {
		if restore, err = m.MergeLatest(nodes); err != nil {
			return nil, err
		}
	}

	out := &RunResult[V]{}
	if opt.RR && p.Agg == core.Arith {
		fresh := false
		switch {
		case opt.Guidance != nil:
			out.Guidance = opt.Guidance
		case len(p.Roots) > 0:
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
				Graph:           g,
				Comm:            s.comms[rank],
				Part:            part,
				RR:              out.Guidance != nil,
				Guidance:        out.Guidance,
				Sched:           s.scheds[rank],
				DenseDivisor:    opt.DenseDivisor,
				TrackLastChange: opt.TrackLastChange,
				Codec:           opt.Codec,
				MeasureAllocs:   opt.MeasureAllocs,
				Ckpt:            opt.Ckpt,
				Restore:         restore,
			}
			eng, err := core.New[V](cfg)
			if err != nil {
				errs[rank] = err
				comm.Abort(s.transports[rank])
				return
			}
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
