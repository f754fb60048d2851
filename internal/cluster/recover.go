// Rank-failure recovery is shrink-and-resume: heartbeat detection,
// buddy-replicated checkpoint fetch, membership shrink, and deterministic
// re-execution. It is an epoch loop around the ordinary session run: every
// membership epoch opens a session over that epoch's transports and runs
// the program on it, handing the epoch's checkpoint managers, restore
// state and bounds over in an epochPlan. Epoch 0 is the full group; when a
// death is detected mid-run the survivors abort the in-flight superstep at
// a collective boundary, agree post-mortem on who died, fold the dead
// ranks' vertex ranges onto the survivors, merge the newest complete
// checkpoint — fetching dead ranks' shards from their ring buddies'
// replicas, never from the dead ranks' own storage — and resume as a
// smaller epoch. A dead rank never comes back: membership only shrinks.
//
// Recovered results are bit-identical to an undisturbed run because (a) the
// merged checkpoint is the exact global state at the checkpointed superstep
// (each vertex's words come from its owner's shard, and delta-sync gives
// every rank the owner's copy), and (b) the engine's superstep trajectory is
// invariant to partitioning and worker count: its reductions are max/
// integer-sum (order-independent) and per-vertex gathers run in in-neighbor
// order. Work after the restored checkpoint is simply re-executed, landing
// on the same values.
package cluster

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"slfe/internal/balance"
	"slfe/internal/ckpt"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/partition"
)

// FTOptions configures rank-failure tolerance (Options.FT).
type FTOptions struct {
	// HeartbeatInterval is the failure-detector probe period (default 25ms).
	HeartbeatInterval time.Duration
	// SuspectAfter / DeadAfter are the silence thresholds of the
	// suspect -> dead FSM (defaults 4x / 10x the interval).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Faults, when set, wraps the initial epoch's transports for fault
	// injection (tests and the recovery benchmark). Recovery epochs run
	// unwrapped: injected faults are one-shot.
	Faults *comm.Faults
	// OnDeath is invoked after each death verdict with the original ids of
	// the ranks just declared dead, before any shard is read. A test/ops
	// hook: the differential tests delete dead ranks' directories here to
	// prove recovery never touches them.
	OnDeath func(dead []int)
}

// RecoveryReport describes what the recovery driver observed and did.
type RecoveryReport struct {
	// Epochs is the number of membership epochs run (1 = no failure).
	Epochs int
	// Deaths lists the original rank ids declared dead, in verdict order.
	Deaths []int
	// DetectTime is the fault-trip -> group-abort latency of the last
	// recovery. Only measurable with an injected fault (real failures have
	// no observable start time); zero otherwise.
	DetectTime time.Duration
	// RecoverTime is the verdict -> new-epoch-start latency of the last
	// recovery: shard scan, merge, membership shrink.
	RecoverTime time.Duration
	// ResumeIter is the superstep the last recovery resumed from (-1: cold
	// restart, no usable checkpoint existed yet).
	ResumeIter int
	// ReplayedSupersteps counts supersteps the failed epoch had completed
	// beyond the restore point — the work re-executed after recovery.
	ReplayedSupersteps int
	// RestoredFromReplica reports whether at least one merged shard came
	// from a ring buddy's replica rather than the writing rank's own
	// directory (true whenever a dead rank had checkpointed).
	RestoredFromReplica bool
}

// executeFT is Execute with rank-failure tolerance (Options.FT, already
// validated). The returned result carries a RecoveryReport.
func executeFT[V comparable](g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	ft := opt.FT
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	nodes := opt.Nodes

	// members holds the surviving original rank ids; epoch rank i is
	// members[i]. Every original rank keeps one private checkpoint manager
	// under opt.Ckpt's directory for the whole run, so a recovery epoch's
	// shards land in the same per-rank directories later recoveries will
	// scan.
	var base ckpt.Manager
	if opt.Ckpt != nil {
		base = *opt.Ckpt
	}
	if base.Dir == "" {
		dir, err := os.MkdirTemp("", "slfe-ft-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		base.Dir = dir
	}
	managers := base.Ranks(nodes)
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
	}

	report := &RecoveryReport{ResumeIter: -1}
	// A resumed run's first epoch starts from the scan a recovery uses.
	var restore *ckpt.State
	if base.Resume {
		restore, _, _ = ckpt.MergeNewest(managers, p.Name, nodes)
	}
	var bounds []uint32
	var lastErr error
	// The driver attempts one membership epoch per initial rank: the
	// initial run plus nodes-1 recoveries.
	for epoch := 0; epoch < nodes; epoch++ {
		report.Epochs = epoch + 1
		k := len(members)
		transports, err := comm.NewLocalGroup(k)
		if err != nil {
			return nil, err
		}
		if epoch == 0 && ft.Faults != nil {
			transports = ft.Faults.Wrap(transports)
		}
		sess, err := NewSessionOver(transports, opt.Threads, opt.Stealing)
		if err != nil {
			return nil, err
		}

		// One failure detector per rank. The first dead verdict anywhere
		// aborts the whole group: a BSP superstep cannot proceed without
		// the dead rank, so survivors stop cleanly at a collective boundary
		// instead of waiting forever.
		var detectAt atomic.Int64
		hbs := make([]*comm.Heartbeater, k)
		for i := range transports {
			t := transports[i]
			hbs[i] = comm.StartHeartbeat(t, comm.HeartbeatConfig{
				Interval:     ft.HeartbeatInterval,
				SuspectAfter: ft.SuspectAfter,
				DeadAfter:    ft.DeadAfter,
				OnDead: func(int) {
					detectAt.CompareAndSwap(0, time.Now().UnixNano())
					comm.Abort(t)
				},
			})
		}

		// Track the furthest completed superstep so a failure's rollback
		// cost (supersteps to replay) can be reported.
		var crashIter atomic.Int64
		crashIter.Store(-1)
		plan := &epochPlan{
			ckpt:    ckpt.Pick(managers, members),
			restore: restore,
			bounds:  bounds,
			progress: func(iter int) {
				for {
					cur := crashIter.Load()
					if int64(iter) <= cur || crashIter.CompareAndSwap(cur, int64(iter)) {
						return
					}
				}
			},
		}
		res, runErr := runSession(sess, g, p, opt, plan)
		for _, h := range hbs {
			h.Stop()
		}
		sess.Close()
		if runErr == nil {
			res.Recovery = report
			return res, nil
		}
		lastErr = runErr

		deadRanks := deathVerdict(hbs)
		if len(deadRanks) == 0 || len(deadRanks) >= k {
			// No death to explain the failure (or nobody left): a genuine
			// engine error, not something recovery can fix.
			return nil, runErr
		}
		if ft.Faults != nil {
			if trip, det := ft.Faults.TripTime(), detectAt.Load(); !trip.IsZero() && det != 0 {
				report.DetectTime = time.Unix(0, det).Sub(trip)
			}
		}
		recoverStart := time.Now()
		deadOrig := make([]int, len(deadRanks))
		for i, r := range deadRanks {
			deadOrig[i] = members[r]
		}
		report.Deaths = append(report.Deaths, deadOrig...)
		if ft.OnDeath != nil {
			ft.OnDeath(deadOrig)
		}

		// Shrink the membership, preserving survivor order.
		deadSet := make(map[int]bool, len(deadRanks))
		for _, r := range deadRanks {
			deadSet[r] = true
		}
		survivors := make([]int, 0, k-len(deadRanks))
		for i, id := range members {
			if !deadSet[i] {
				survivors = append(survivors, id)
			}
		}
		members = survivors

		// Fetch the newest complete checkpoint of the failed epoch from the
		// survivors' directories (own shards + buddy replicas), merge it
		// into one global restore state, and fold the dead ranks' ranges
		// onto the survivors. With no complete checkpoint the new epoch
		// cold-starts — still bit-identical, just replaying from iter 0.
		restore, bounds = nil, nil
		report.ResumeIter = -1
		report.RestoredFromReplica = false
		if merged, failedBounds, fromReplica := ckpt.MergeNewest(ckpt.Pick(managers, members), p.Name, k); merged != nil {
			if failedRanges, err := partition.FromBounds(failedBounds); err == nil {
				if shrunk, err := balance.Shrink(failedRanges, deadRanks); err == nil {
					restore = merged
					bounds = shrunk.Bounds()
					report.ResumeIter = int(merged.Iter)
					report.RestoredFromReplica = fromReplica
				}
			}
		}
		if crashed := crashIter.Load(); restore != nil && crashed > int64(restore.Iter) {
			report.ReplayedSupersteps = int(crashed) - report.ResumeIter
		} else if restore == nil {
			report.ReplayedSupersteps = int(crashed) + 1
		} else {
			report.ReplayedSupersteps = 0
		}
		report.RecoverTime = time.Since(recoverStart)
	}
	return nil, fmt.Errorf("cluster: recovery epoch limit (%d) exhausted: %w", nodes, lastErr)
}

// deathVerdict aggregates the per-rank failure detectors into one group
// verdict: ranks are grouped by identical dead-sets and the largest class
// wins (ties: the class containing the smallest rank). A clean death
// yields one big accusing class; a network partition yields two classes
// each accusing the other, and the majority side — or the low-rank side of
// an even split — survives, mirroring quorum rules in consensus systems.
func deathVerdict(hbs []*comm.Heartbeater) []int {
	type class struct {
		members []int
		dead    []int
	}
	classes := make(map[string]*class)
	for r, h := range hbs {
		d := h.Dead()
		sort.Ints(d)
		key := fmt.Sprint(d)
		c := classes[key]
		if c == nil {
			c = &class{dead: d}
			classes[key] = c
		}
		c.members = append(c.members, r)
	}
	var best *class
	for _, c := range classes {
		if best == nil || len(c.members) > len(best.members) ||
			(len(c.members) == len(best.members) && c.members[0] < best.members[0]) {
			best = c
		}
	}
	return best.dead
}
