//go:build perf

package cluster_test

// Wall-clock guards. Their verdicts depend on the machine and on what else
// it is running, so they are kept out of `go test ./...` behind the perf
// tag; CI's chaos job runs them with -tags perf. The machine-independent
// half (bit-identity) is TestRecoveryBitIdentical in recover_test.go.

import (
	"slices"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/ckpt"
	"slfe/internal/cluster"
	"slfe/internal/comm"
	"slfe/internal/graph"
)

// TestRecoveryWithinBound is the latency half of the recovery guard:
// detection must land within a small multiple of the configured DeadAfter
// and the recovery turnaround (shard scan, merge, membership shrink) must
// stay well under a second at test scale. The bounds are deliberately
// generous — they trip on structural regressions (detection waiting on a
// stuck collective, recovery rescanning per shard), never on CI jitter.
func TestRecoveryWithinBound(t *testing.T) {
	const deadAfter = 400 * time.Millisecond
	rep := recoverOnce(t, deadAfter)
	// Detection = silence threshold + at most a few probe/monitor periods.
	if maxDetect := 4 * deadAfter; rep.DetectTime <= 0 || rep.DetectTime > maxDetect {
		t.Errorf("time-to-detect = %v, want (0, %v]", rep.DetectTime, maxDetect)
	}
	if maxRecover := 2 * time.Second; rep.RecoverTime <= 0 || rep.RecoverTime > maxRecover {
		t.Errorf("time-to-recover = %v, want (0, %v]", rep.RecoverTime, maxRecover)
	}
}

// rejoinOptions is the configuration the rejoin guard measures under:
// three ranks on a loopback TCP mesh with checkpoints every second
// superstep.
func rejoinOptions(t *testing.T) cluster.Options {
	return cluster.Options{Nodes: 3, Threads: 1, Stealing: true, RR: true,
		Ckpt: &ckpt.Manager{Dir: t.TempDir(), Every: 2},
		FT: &cluster.FTOptions{
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectAfter:      150 * time.Millisecond,
			DeadAfter:         400 * time.Millisecond,
			TCPLoopback:       true,
		}}
}

// rejoinRun kills the last of three ranks halfway through a PageRank run
// over the TCP mesh, restarts it and grows it back into the next epoch. It
// verifies the values bit-identical against the undisturbed base run and
// returns the recovery report plus the grown (final) epoch's superstep
// throughput.
func rejoinRun(t *testing.T, g *graph.Graph, base *cluster.RunResult[float64]) (*cluster.RecoveryReport, float64) {
	t.Helper()
	f := comm.NewFaults()
	f.KillAfterSends(2, base.Comm.MessagesSent/2)
	opt := rejoinOptions(t)
	opt.FT.Faults = f
	opt.FT.Rejoin = true
	opt.FT.RejoinWindow = 5 * time.Second
	opt.FT.RestartDelay = 30 * time.Millisecond
	got, err := cluster.Execute(g, apps.PageRank(24), opt)
	if err != nil {
		t.Fatalf("rejoin faulted run: %v", err)
	}
	rep := got.Recovery
	if rep == nil {
		t.Fatal("rejoin: faulted run returned no recovery report")
	}
	if !slices.Equal(got.Result.Values, base.Result.Values) {
		t.Fatal("rejoin: recovered values diverged from the undisturbed run")
	}
	return rep, lastEpochThroughput(rep)
}

// tcpBaseline measures the undisturbed superstep throughput over the same
// loopback TCP mesh and checkpoint cadence rejoinRun uses: a clean
// single-epoch FT run.
func tcpBaseline(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	got, err := cluster.Execute(g, apps.PageRank(24), rejoinOptions(t))
	if err != nil {
		t.Fatalf("rejoin TCP baseline: %v", err)
	}
	if got.Recovery == nil || len(got.Recovery.EpochStats) == 0 {
		t.Fatal("rejoin TCP baseline: no epoch stats")
	}
	return lastEpochThroughput(got.Recovery)
}

// lastEpochThroughput is the final membership epoch's supersteps per
// second — the post-recovery (shrunk or grown) pace of the cluster.
func lastEpochThroughput(rep *cluster.RecoveryReport) float64 {
	if len(rep.EpochStats) == 0 {
		return 0
	}
	last := rep.EpochStats[len(rep.EpochStats)-1]
	if last.Supersteps <= 0 || last.Elapsed <= 0 {
		return 0
	}
	return float64(last.Supersteps) / last.Elapsed.Seconds()
}

func ratioOf(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// TestRejoinThroughputRecovers is the CI guard for elastic re-expansion:
// after a killed rank rejoins, the grown epoch's superstep throughput must
// recover to at least 90% of an undisturbed run over the same TCP mesh and
// checkpoint cadence. PageRank is the probe — its per-superstep cost is
// stable, so the ratio isolates membership effects from frontier shape.
// Timing-sensitive, so the guard passes if any of three attempts meets the
// bar; a structural regression (rejoined epoch stuck shrunk,
// redistribution on the superstep path) fails all three.
func TestRejoinThroughputRecovers(t *testing.T) {
	g := pkProxy(t, 1000)
	const attempts = 3
	var lastRatio float64
	for attempt := 0; attempt < attempts; attempt++ {
		base, err := cluster.Execute(g, apps.PageRank(24), cluster.Options{Nodes: 3, Threads: 1, Stealing: true, RR: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, grown := rejoinRun(t, g, base)
		if rep.Degraded || len(rep.Rejoined) == 0 {
			t.Logf("attempt %d: rejoin degraded (rejoined=%v); retrying", attempt, rep.Rejoined)
			continue
		}
		if rep.FinalMembers != 3 {
			t.Fatalf("final members = %d, want full size 3", rep.FinalMembers)
		}
		lastRatio = ratioOf(grown, tcpBaseline(t, g))
		if lastRatio >= 0.9 {
			return
		}
		t.Logf("attempt %d: grown/base throughput = %.3f (< 0.9); retrying", attempt, lastRatio)
	}
	t.Fatalf("rejoined throughput never reached 90%% of undisturbed across %d attempts (last ratio %.3f)", attempts, lastRatio)
}
