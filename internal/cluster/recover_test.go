package cluster_test

// Fault-injection differential tests: kill a rank (and separately partition
// the group) mid-run, let the recovery driver detect the failure over
// heartbeats, fetch the dead ranks' checkpoint shards from their ring
// buddies' replicas, shrink the membership, and finish — then require the
// result to be bit-identical to an undisturbed run. OnDeath deletes the
// dead ranks' private checkpoint directories before recovery reads
// anything, proving the restore never touches dead storage.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/gen"
	"slfe/internal/graph"
	"slfe/internal/rrg"
)

// ftEvery is the checkpoint interval of every fault-injected run.
const ftEvery = 1

func ftGraph() *graph.Graph {
	return gen.RMAT(2048, 16384, gen.DefaultRMAT, 8, 4)
}

// ftDiff runs mk's program undisturbed, then again with fault injection and
// the recovery driver, and requires bit-identical values plus a recovery
// report matching wantDead. inject receives the undisturbed run's message
// count so triggers can fire mid-run regardless of program or scale.
func ftDiff[V comparable](t *testing.T, g *graph.Graph, mk func() *core.Program[V], opt cluster.Options, inject func(f *comm.Faults, total int64), wantDead []int) *cluster.RecoveryReport {
	t.Helper()
	return ftDiffIn(t, t.TempDir(), g, mk, opt, inject, wantDead)
}

// ftDiffIn is ftDiff checkpointing into dir, which may already hold other
// runs' shards.
func ftDiffIn[V comparable](t *testing.T, dir string, g *graph.Graph, mk func() *core.Program[V], opt cluster.Options, inject func(f *comm.Faults, total int64), wantDead []int) *cluster.RecoveryReport {
	t.Helper()
	base, err := cluster.Execute(g, mk(), opt)
	if err != nil {
		t.Fatalf("undisturbed run: %v", err)
	}

	f := comm.NewFaults()
	inject(f, base.Comm.MessagesSent)
	fopt := opt
	fopt.Ckpt = &ckpt.Manager{Dir: dir, Every: ftEvery}
	fopt.FT = &cluster.FTOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		// A wide suspect->dead gap keeps post-abort verdicts unanimous even
		// when -race scheduling stalls a goroutine for tens of milliseconds.
		SuspectAfter: 150 * time.Millisecond,
		DeadAfter:    400 * time.Millisecond,
		Faults:       f,
		OnDeath: func(dead []int) {
			for _, d := range dead {
				if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("rank-%03d", d))); err != nil {
					t.Errorf("deleting dead rank %d's storage: %v", d, err)
				}
			}
		},
	}
	got, err := cluster.Execute(g, mk(), fopt)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	rep := got.Recovery
	if rep == nil {
		t.Fatal("faulted run returned no recovery report")
	}
	if rep.Epochs != 2 {
		t.Errorf("epochs = %d, want 2 (one failure, one recovery)", rep.Epochs)
	}
	if !reflect.DeepEqual(rep.Deaths, wantDead) {
		t.Errorf("deaths = %v, want %v", rep.Deaths, wantDead)
	}
	if len(got.Result.Values) != len(base.Result.Values) {
		t.Fatalf("value count %d != undisturbed %d", len(got.Result.Values), len(base.Result.Values))
	}
	diff := 0
	for i := range base.Result.Values {
		if got.Result.Values[i] != base.Result.Values[i] {
			if diff == 0 {
				t.Errorf("vertex %d: recovered %v != undisturbed %v", i, got.Result.Values[i], base.Result.Values[i])
			}
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d vertices differ from the undisturbed run", diff, len(base.Result.Values))
	}
	return rep
}

// killMidRun kills rank victim once roughly half the undisturbed run's
// traffic has flowed.
func killMidRun(victim int) func(f *comm.Faults, total int64) {
	return func(f *comm.Faults, total int64) {
		f.KillAfterSends(victim, total/2)
	}
}

// partitionMidRun splits 4 ranks into interleaved islands {0,2} | {1,3}
// mid-run. Interleaving matters: ring buddies are (r+1)%4, so each dead
// rank's replica lives on a survivor.
func partitionMidRun(f *comm.Faults, total int64) {
	f.PartitionAfterSends(total/2, []int{0, 2}, []int{1, 3})
}

func requireWarmRestore(t *testing.T, rep *cluster.RecoveryReport) {
	t.Helper()
	if rep.ResumeIter < 0 {
		t.Errorf("resume iter = %d, want a checkpointed superstep (warm restore)", rep.ResumeIter)
	}
	// Recovery must restore the newest complete checkpoint; an older one
	// replays bit-identically, only slower. The furthest rank is less than
	// one interval past the newest tick, and that tick may be incomplete: a
	// rank can die before its replica of it reaches its buddy. Every rank
	// finished the tick before, so fewer than two intervals are replayed.
	if rep.ReplayedSupersteps >= 2*ftEvery {
		t.Errorf("replayed %d supersteps from tick %d, want fewer than two checkpoint intervals (%d): not the newest complete checkpoint",
			rep.ReplayedSupersteps, rep.ResumeIter, 2*ftEvery)
	}
	if !rep.RestoredFromReplica {
		t.Error("restore used no buddy replica, but the dead ranks' directories were deleted")
	}
	if rep.DetectTime <= 0 {
		t.Errorf("detect time = %v, want > 0 (injected faults stamp the trip)", rep.DetectTime)
	}
}

func TestFTKillMinMaxF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2})
	requireWarmRestore(t, rep)
}

func TestFTKillMinMaxU32(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[uint32] { return apps.BFSU32(0) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2})
	requireWarmRestore(t, rep)
}

func TestFTKillArithF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.PageRank(12) },
		cluster.Options{Nodes: 3}, killMidRun(1), []int{1})
	requireWarmRestore(t, rep)
}

func TestFTKillArithU32(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[uint32] { return apps.NumPathsU32(0, 12) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2})
	requireWarmRestore(t, rep)
}

func TestFTPartitionMinMaxF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 4}, partitionMidRun, []int{1, 3})
	requireWarmRestore(t, rep)
}

func TestFTPartitionArithF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.PageRank(12) },
		cluster.Options{Nodes: 4}, partitionMidRun, []int{1, 3})
	requireWarmRestore(t, rep)
}

// TestFTKillStartLate exercises recovery of a "start late" run: the
// resumed run, whose shards do not say who was suppressed, must repay
// everything with its closing pull.
func TestFTKillStartLate(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3, RR: true}, killMidRun(2), []int{2})
	requireWarmRestore(t, rep)
}

// withRebalance moves ownership every superstep: the shards record the
// moved ranges, Merge takes each vertex from its owner under them, and the
// next epoch folds those ranges.
func withRebalance(opt cluster.Options) cluster.Options {
	opt.Rebalance, opt.RebalanceEvery, opt.RebalanceDamping = true, 1, 1
	return opt
}

func TestFTKillRebalance(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		withRebalance(cluster.Options{Nodes: 3, RR: true}), killMidRun(2), []int{2})
	requireWarmRestore(t, rep)
}

func TestFTPartitionRebalance(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.PageRank(12) },
		withRebalance(cluster.Options{Nodes: 4}), partitionMidRun, []int{1, 3})
	requireWarmRestore(t, rep)
}

// TestFTKillBeforeClosingPull kills a rank after the first pull round has
// suppressed its late starters and before any pull has reached
// max(LastIter): the new epoch restores a frontier-only shard, treats every
// vertex as owed and must still finish bit-identical. The kill comes at
// three fifths of the undisturbed run's traffic rather than half: the
// faulted run also replicates a checkpoint every superstep (one ring round,
// a message to each peer), so half the undisturbed count falls before the
// first checkpoint past superstep 0 is complete.
func TestFTKillBeforeClosingPull(t *testing.T) {
	g := ftGraph()
	maxLastIter := int(rrg.Generate(g, []graph.VertexID{0}, nil).MaxLastIter)
	kill := func(f *comm.Faults, total int64) { f.KillAfterSends(2, total*3/5) }
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3, RR: true}, kill, []int{2})
	requireWarmRestore(t, rep)
	if rep.ResumeIter < 1 || rep.ResumeIter >= maxLastIter {
		t.Skipf("resumed from superstep %d, outside the window [1, %d) this test is about; adjust the kill point", rep.ResumeIter, maxLastIter)
	}
}

// TestFTRecoveryIgnoresForeignShards recovers into a Ckpt.Dir that already
// holds complete shard sets newer than anything the run writes: a 3-rank
// PageRank run's and a 4-rank SSSP run's. The directory is the caller's, so
// recovery must pick only shards of its own program written by its own
// rank count. Killing rank 0 leaves ranks 0, 1 and 2 of the 4-rank set in
// the survivors' directories (own shards plus ring replicas), a set only
// the writer-count filter rejects. The restore must stay warm and the
// values bit-identical.
func TestFTRecoveryIgnoresForeignShards(t *testing.T) {
	g := ftGraph()
	dir := t.TempDir()
	ftCkpt := func(nodes int) cluster.Options {
		return cluster.Options{Nodes: nodes, Ckpt: &ckpt.Manager{Dir: dir, Every: 1},
			FT: &cluster.FTOptions{HeartbeatInterval: 5 * time.Millisecond, DeadAfter: 400 * time.Millisecond}}
	}
	if _, err := cluster.Execute(g, apps.PageRank(40), ftCkpt(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Execute(g, apps.SSSP(0), ftCkpt(4)); err != nil {
		t.Fatal(err)
	}
	rep := ftDiffIn(t, dir, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, killMidRun(0), []int{0})
	requireWarmRestore(t, rep)
}

// TestFTKillBeforeFirstCheckpoint kills a rank before any checkpoint
// completes: recovery must fall back to a cold restart of the shrunk group
// and still produce bit-identical results.
func TestFTKillBeforeFirstCheckpoint(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, func(f *comm.Faults, total int64) {
			f.KillAfterSends(2, 3)
		}, []int{2})
	if rep.ResumeIter != -1 {
		t.Errorf("resume iter = %d, want -1 (cold restart: no checkpoint existed)", rep.ResumeIter)
	}
	if rep.RestoredFromReplica {
		t.Error("cold restart cannot have used a replica")
	}
}

// TestFTCleanRunNoFalseDetection runs the FT driver with no injected fault:
// one epoch, no deaths, values identical to a plain run.
func TestFTCleanRunNoFalseDetection(t *testing.T) {
	g := ftGraph()
	p := func() *core.Program[float64] { return apps.SSSP(0) }
	base, err := cluster.Execute(g, p(), cluster.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Execute(g, p(), cluster.Options{Nodes: 3, Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 2}, FT: &cluster.FTOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		DeadAfter:         400 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery == nil || got.Recovery.Epochs != 1 || len(got.Recovery.Deaths) != 0 {
		t.Fatalf("recovery report = %+v, want 1 epoch and no deaths", got.Recovery)
	}
	if !reflect.DeepEqual(got.Result.Values, base.Result.Values) {
		t.Fatal("clean FT run's values differ from a plain run")
	}
}

// pkProxy materialises the PK dataset proxy at the given down-scale factor.
func pkProxy(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("PK")
	if err != nil {
		t.Fatal(err)
	}
	return d.Proxy(scale)
}

// recoverOnce kills rank 2 of a 3-rank SSSP run mid-way and returns the
// recovery report after checking what no machine can change: exactly one
// recovery epoch and values bit-identical to the undisturbed run. deadAfter
// is the failure detector's silence threshold.
func recoverOnce(t *testing.T, deadAfter time.Duration) *cluster.RecoveryReport {
	t.Helper()
	g := pkProxy(t, 4000)
	opt := cluster.Options{Nodes: 3, Threads: 1}
	base, err := cluster.Execute(g, apps.SSSP(0), opt)
	if err != nil {
		t.Fatal(err)
	}

	f := comm.NewFaults()
	f.KillAfterSends(2, base.Comm.MessagesSent/2)
	fopt := opt
	fopt.Ckpt = &ckpt.Manager{Dir: t.TempDir(), Every: 2}
	fopt.FT = &cluster.FTOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         deadAfter,
		Faults:            f,
	}
	got, err := cluster.Execute(g, apps.SSSP(0), fopt)
	if err != nil {
		t.Fatal(err)
	}
	rep := got.Recovery
	if rep == nil || rep.Epochs != 2 {
		t.Fatalf("recovery report = %+v, want one recovery epoch", rep)
	}
	for i := range base.Result.Values {
		if got.Result.Values[i] != base.Result.Values[i] {
			t.Fatalf("vertex %d: recovered %v != undisturbed %v", i, got.Result.Values[i], base.Result.Values[i])
		}
	}
	return rep
}

// TestRecoveryBitIdentical is the machine-independent half of the recovery
// guard; its latency bounds are TestRecoveryWithinBound (perf_test.go).
func TestRecoveryBitIdentical(t *testing.T) {
	recoverOnce(t, 400*time.Millisecond)
}
