// Rank-failure recovery: heartbeat detection, buddy-replicated checkpoint
// fetch, membership shrink, and deterministic re-execution. It is an epoch
// loop around the ordinary session run: every membership epoch opens a
// session over that epoch's transports and runs the program on it, handing
// the epoch's checkpoint managers, restore states and bounds over in an
// epochPlan. Epoch 0 is the full group; when a death is detected mid-run
// the survivors abort the in-flight superstep at a collective boundary,
// agree post-mortem on who died, fold the dead ranks' vertex ranges onto
// the survivors, merge the newest complete checkpoint — fetching dead
// ranks' shards from their ring buddies' replicas, never from the dead
// ranks' own storage — and resume as a smaller epoch.
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
	// TCPLoopback runs every membership epoch over a real loopback TCP mesh
	// (persistent comm.MeshNode endpoints, epoch-tagged handshakes) instead
	// of the in-process transport.
	TCPLoopback bool
	// Rejoin enables elastic re-expansion: a rank declared dead is
	// restarted (new listener on its old address) after RestartDelay, and
	// the recovery transition holds a RejoinWindow open for its
	// announcement. A rank admitted back in time is grown into the next
	// epoch with its original vertex range and the checkpoint state for
	// that range shipped over its rejoin connection; a rank that misses the
	// window leaves the cluster running shrunk (Degraded). Requires
	// TCPLoopback.
	Rejoin bool
	// RejoinWindow is how long the recovery transition waits for restarted
	// ranks to announce themselves (default 2s).
	RejoinWindow time.Duration
	// RestartDelay is the simulated process-restart latency: the gap
	// between the death verdict and the dead rank's new listener coming up
	// (default 50ms).
	RestartDelay time.Duration
	// Logf receives recovery-path verdicts (deaths, rejoins, degradations).
	// Nil discards them.
	Logf func(format string, args ...any)
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
	// Rejoined lists the original rank ids readmitted during the last
	// recovery transition (empty when rejoin is off or nobody made the
	// window).
	Rejoined []int
	// RejoinTime is the verdict -> all-admissions-written latency of the
	// last recovery that readmitted at least one rank.
	RejoinTime time.Duration
	// RedistributedBytes counts checkpoint-state bytes shipped to rejoined
	// ranks over their rejoin connections.
	RedistributedBytes int
	// Degraded reports that rejoin was enabled but at least one recovery
	// transition continued shrunk: the restarted rank missed the window,
	// its admission failed, or the grown epoch could not form.
	Degraded bool
	// FinalMembers is the membership size the run completed with.
	FinalMembers int
	// EpochStats records each membership epoch's shape and progress, in
	// order; the last entry is the epoch that completed the run.
	EpochStats []EpochStat
}

// EpochStat is one membership epoch's footprint in a RecoveryReport.
type EpochStat struct {
	// Members is the epoch's membership size.
	Members int
	// Supersteps is how many supersteps the epoch itself executed before it
	// finished or was aborted — work replayed or advanced in this epoch,
	// excluding anything restored from a checkpoint.
	Supersteps int
	// Elapsed is the epoch's wall-clock time, mesh formation included.
	Elapsed time.Duration
}

// executeFT is Execute with rank-failure tolerance (Options.FT, already
// validated). The returned result carries a RecoveryReport.
func executeFT[V comparable](g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	ft := opt.FT
	if opt.Nodes <= 0 {
		opt.Nodes = 1
	}
	nodes := opt.Nodes
	rejoinWindow := ft.RejoinWindow
	if rejoinWindow <= 0 {
		rejoinWindow = 2 * time.Second
	}
	restartDelay := ft.RestartDelay
	if restartDelay <= 0 {
		restartDelay = 50 * time.Millisecond
	}
	logf := ft.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

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

	// Persistent mesh endpoints, one per original rank, surviving across
	// membership epochs. A dead rank's node is closed at its verdict (the
	// process died, its listener with it); with Rejoin a fresh node comes
	// back on the same address after the restart delay.
	var meshNodes []*comm.MeshNode
	var meshAddrs []string
	if ft.TCPLoopback {
		var err error
		meshNodes, meshAddrs, err = comm.NewLoopbackMeshNodes(nodes)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, n := range meshNodes {
				if n != nil {
					n.Close()
				}
			}
		}()
	}

	report := &RecoveryReport{ResumeIter: -1}
	// A resumed run's first epoch starts from the scan a recovery uses.
	var restore *ckpt.State
	if base.Resume {
		restore, _, _ = ckpt.MergeNewest(managers, p.Name, nodes)
	}
	var restorePerRank []*ckpt.State
	var bounds []uint32
	var lastErr error
	// Degradation fallback for a grown epoch that fails to form: the
	// membership and bounds the recovery would have used without rejoin.
	var revivedPrev []int
	var fallbackMembers []int
	var fallbackBounds []uint32
	// The driver attempts one membership epoch per initial rank: the
	// initial run plus nodes-1 recoveries.
	for epoch := 0; epoch < nodes; epoch++ {
		report.Epochs = epoch + 1
		epochStart := time.Now()
		k := len(members)
		var transports []comm.Transport
		var err error
		if ft.TCPLoopback {
			transports, err = comm.JoinMembers(meshNodes, uint32(epoch), members, meshJoinTimeout)
			if err != nil {
				if len(revivedPrev) > 0 {
					// The grown epoch could not form (the rejoined rank
					// failed its handshake or died again): degrade to the
					// shrunk membership instead of aborting the run.
					logf("cluster: grown epoch %d failed to form (%v); degrading to shrunk membership %v", epoch, err, fallbackMembers)
					report.Degraded = true
					report.Rejoined = nil
					for _, d := range revivedPrev {
						if meshNodes[d] != nil {
							meshNodes[d].Close()
							meshNodes[d] = nil
						}
					}
					members = fallbackMembers
					bounds = fallbackBounds
					restorePerRank = nil
					revivedPrev = nil
					continue
				}
				return nil, err
			}
		} else {
			transports, err = comm.NewLocalGroup(k)
			if err != nil {
				return nil, err
			}
		}
		revivedPrev = nil
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
			restore: make([]*ckpt.State, k),
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
		// A rejoined rank resumes from the state shipped over its rejoin
		// connection, everyone else from the in-memory merge.
		for i := range plan.restore {
			plan.restore[i] = restore
			if restorePerRank != nil && restorePerRank[i] != nil {
				plan.restore[i] = restorePerRank[i]
			}
		}

		// The epoch resumes after the restored superstep (or from scratch);
		// its own work is everything past that point.
		resumeBase := -1
		if restore != nil {
			resumeBase = int(restore.Iter)
		}
		res, runErr := runSession(sess, g, p, opt, plan)
		for _, h := range hbs {
			h.Stop()
		}
		sess.Close()
		executed := int(crashIter.Load()) - resumeBase
		if executed < 0 {
			executed = 0
		}
		report.EpochStats = append(report.EpochStats, EpochStat{
			Members:    k,
			Supersteps: executed,
			Elapsed:    time.Since(epochStart),
		})
		if runErr == nil {
			report.FinalMembers = k
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
		logf("cluster: epoch %d: ranks %v declared dead", epoch, deadOrig)
		if ft.OnDeath != nil {
			ft.OnDeath(deadOrig)
		}

		// A dead process's listener dies with it. With rejoin enabled, each
		// dead rank restarts: after the restart delay a fresh node binds the
		// old address and announces itself to the surviving mesh, racing the
		// rejoin window below.
		var restarts chan restartOutcome
		if ft.TCPLoopback {
			restarts = make(chan restartOutcome, len(deadOrig))
			for _, d := range deadOrig {
				if meshNodes[d] != nil {
					meshNodes[d].Close()
					meshNodes[d] = nil
				}
				if !ft.Rejoin {
					continue
				}
				go func(d int) {
					time.Sleep(restartDelay)
					n, err := comm.ListenMesh(d, meshAddrs)
					if err != nil {
						restarts <- restartOutcome{id: d, err: err}
						return
					}
					adm, err := n.Rejoin(comm.RejoinConfig{Deadline: rejoinWindow + time.Second})
					if err != nil {
						n.Close()
						restarts <- restartOutcome{id: d, err: err}
						return
					}
					restarts <- restartOutcome{id: d, node: n, adm: adm}
				}(d)
			}
		}

		// Shrink the membership, preserving survivor order. prevMembers (the
		// failed epoch's member list) stays intact for the grow computation.
		prevMembers := members
		deadSet := make(map[int]bool, len(deadRanks))
		for _, r := range deadRanks {
			deadSet[r] = true
		}
		survivors := make([]int, 0, k-len(deadRanks))
		for i, id := range prevMembers {
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
		restore, bounds, restorePerRank = nil, nil, nil
		report.ResumeIter = -1
		report.RestoredFromReplica = false
		var failedRanges *partition.Chunked
		merged, failedBounds, fromReplica := ckpt.MergeNewest(ckpt.Pick(managers, members), p.Name, k)
		if merged != nil {
			if failedRanges, err = partition.FromBounds(failedBounds); err != nil {
				merged = nil
			}
		}
		if failedRanges != nil {
			if shrunk, err := balance.Shrink(failedRanges, deadRanks); err == nil {
				restore = merged
				bounds = shrunk.Bounds()
				report.ResumeIter = int(merged.Iter)
				report.RestoredFromReplica = fromReplica
			} else {
				merged, failedRanges = nil, nil
			}
		}
		if crashed := crashIter.Load(); restore != nil && crashed > int64(restore.Iter) {
			report.ReplayedSupersteps = int(crashed) - report.ResumeIter
		} else if restore == nil {
			report.ReplayedSupersteps = int(crashed) + 1
		} else {
			report.ReplayedSupersteps = 0
		}

		// Hold the rejoin window open: restarted ranks admitted in time are
		// grown back into the next epoch with their original ranges and the
		// checkpoint state for them shipped over the rejoin connection.
		// Anything less leaves the cluster running shrunk, degraded but
		// alive.
		if ft.Rejoin {
			fallbackMembers, fallbackBounds = members, bounds
			pending := awaitRejoins(meshNodes, members, deadOrig, rejoinWindow)
			var grown *growOutcome
			if len(pending) > 0 {
				grown = tryRejoinGrow(meshNodes, prevMembers, deadRanks, pending, restarts, failedRanges, merged, uint32(epoch+1))
			}
			if grown != nil {
				members = grown.members
				bounds = grown.bounds
				restore = merged
				restorePerRank = grown.restorePerRank
				revivedPrev = grown.revived
				report.Rejoined = append([]int(nil), grown.revived...)
				report.RejoinTime = time.Since(recoverStart)
				report.RedistributedBytes += grown.bytes
				logf("cluster: epoch %d: ranks %v rejoined; membership grown to %v", epoch, grown.revived, grown.members)
			} else {
				report.Degraded = true
				logf("cluster: epoch %d: rejoin window (%v) closed without a grown epoch; continuing shrunk with members %v", epoch, rejoinWindow, members)
			}
		}
		report.RecoverTime = time.Since(recoverStart)
	}
	return nil, fmt.Errorf("cluster: recovery epoch limit (%d) exhausted: %w", nodes, lastErr)
}

// meshJoinTimeout bounds one membership epoch's collective mesh formation;
// restartCollectTimeout bounds the wait for an admitted rejoiner's restart
// goroutine to hand its node over (loopback: the admission payload was just
// written, so this is pure safety margin).
const (
	meshJoinTimeout       = 30 * time.Second
	restartCollectTimeout = 5 * time.Second
)

// restartOutcome is one restarted rank's report: its fresh mesh node and
// the admission its Rejoin received, or the error that ended the attempt.
type restartOutcome struct {
	id   int
	node *comm.MeshNode
	adm  *comm.Admission
	err  error
}

// growOutcome is a successful rejoin transition: the grown membership, its
// bounds (nil on a cold start), the per-rank restore overrides carrying the
// wire-shipped states, the readmitted original ids, and the bytes shipped.
type growOutcome struct {
	members        []int
	bounds         []uint32
	restorePerRank []*ckpt.State
	revived        []int
	bytes          int
}

// awaitRejoins holds the recovery transition open for the rejoin window,
// fanning in announcements parked on every survivor's node. It returns the
// requests of expected dead ranks keyed by original id, stopping early once
// every dead rank has announced; duplicate and unexpected announcers are
// rejected on the spot.
func awaitRejoins(meshNodes []*comm.MeshNode, survivors, dead []int, window time.Duration) map[int]*comm.RejoinRequest {
	expected := make(map[int]bool, len(dead))
	for _, d := range dead {
		expected[d] = true
	}
	fanIn := make(chan *comm.RejoinRequest)
	done := make(chan struct{})
	defer close(done)
	for _, id := range survivors {
		n := meshNodes[id]
		if n == nil {
			continue
		}
		go func(n *comm.MeshNode) {
			for {
				select {
				case r := <-n.Rejoins():
					select {
					case fanIn <- r:
					case <-done:
						r.Reject()
						return
					}
				case <-done:
					return
				}
			}
		}(n)
	}
	pending := make(map[int]*comm.RejoinRequest)
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(pending) < len(dead) {
		select {
		case r := <-fanIn:
			if _, dup := pending[r.Rank]; dup || !expected[r.Rank] {
				r.Reject()
				continue
			}
			pending[r.Rank] = r
		case <-timer.C:
			return pending
		}
	}
	return pending
}

// tryRejoinGrow runs the admission half of a recovery transition: it
// computes the grown membership and bounds from the requests that made the
// window, writes each admission — shipping the merged checkpoint state over
// the rejoin connection — and collects the restarted ranks' outcomes. The
// grown epoch restores each rejoined rank from the payload its process
// actually decoded off the wire, so the redistribution is load-bearing. Any
// failure cleans up and returns nil: the caller continues shrunk.
func tryRejoinGrow(meshNodes []*comm.MeshNode, prevMembers, deadRanks []int, pending map[int]*comm.RejoinRequest, restarts <-chan restartOutcome, failedRanges *partition.Chunked, merged *ckpt.State, nextEpoch uint32) *growOutcome {
	revived := make([]int, 0, len(pending))
	for id := range pending {
		revived = append(revived, id)
	}
	sort.Ints(revived)
	rejectRest := func() {
		for _, req := range pending {
			req.Reject()
		}
	}

	rankIn := make(map[int]int, len(prevMembers))
	for i, id := range prevMembers {
		rankIn[id] = i
	}
	revivedRanks := make([]int, len(revived))
	revivedSet := make(map[int]bool, len(revived))
	for i, id := range revived {
		revivedRanks[i] = rankIn[id]
		revivedSet[id] = true
	}
	deadSet := make(map[int]bool, len(deadRanks))
	for _, r := range deadRanks {
		deadSet[r] = true
	}
	grownMembers := make([]int, 0, len(prevMembers))
	for i, id := range prevMembers {
		if !deadSet[i] || revivedSet[id] {
			grownMembers = append(grownMembers, id)
		}
	}

	out := &growOutcome{members: grownMembers, revived: revived}
	var restoreBytes []byte
	if failedRanges != nil {
		g, err := balance.Grow(failedRanges, deadRanks, revivedRanks)
		if err != nil {
			rejectRest()
			return nil
		}
		out.bounds = g.Bounds()
		if restoreBytes, err = merged.Encode(); err != nil {
			rejectRest()
			return nil
		}
	}

	for _, id := range revived {
		sent, err := pending[id].Admit(&comm.Admission{
			Epoch:   nextEpoch,
			Members: grownMembers,
			Bounds:  out.bounds,
			Restore: restoreBytes,
		})
		delete(pending, id)
		if err != nil {
			rejectRest()
			return nil
		}
		out.bytes += sent
	}

	got := make(map[int]restartOutcome, len(revived))
	timer := time.NewTimer(restartCollectTimeout)
	defer timer.Stop()
	fail := func() *growOutcome {
		for _, o := range got {
			if o.node != nil {
				o.node.Close()
			}
		}
		return nil
	}
	for len(got) < len(revived) {
		select {
		case o := <-restarts:
			if !revivedSet[o.id] {
				if o.node != nil {
					o.node.Close()
				}
				continue
			}
			if o.err != nil || o.adm == nil || o.node == nil {
				return fail()
			}
			got[o.id] = o
		case <-timer.C:
			return fail()
		}
	}
	out.restorePerRank = make([]*ckpt.State, len(grownMembers))
	for _, o := range got {
		if len(o.adm.Restore) == 0 {
			continue
		}
		st, err := ckpt.DecodeState(o.adm.Restore)
		if err != nil {
			return fail()
		}
		for j, id := range grownMembers {
			if id == o.id {
				out.restorePerRank[j] = st
			}
		}
	}
	for _, o := range got {
		meshNodes[o.id] = o.node
	}
	return out
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
