package cluster_test

// Elastic-membership differential tests over a real loopback TCP mesh: the
// same kill/partition guards as recover_test.go but with every membership
// epoch formed by comm.MeshNode handshakes over real sockets, plus the
// rejoin path — a killed rank's process restarts, redials the surviving
// mesh, and is grown back into the next epoch, which must end bit-identical
// to an undisturbed run at full membership. A rejoin that misses the window
// must leave the cluster running shrunk with a logged degradation verdict —
// no hang, no abort.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/core"
)

func overTCP(ft *cluster.FTOptions) { ft.TCPLoopback = true }

func TestFTTCPKillMinMaxF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2}, overTCP)
	requireWarmRestore(t, rep)
}

func TestFTTCPKillArithF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.PageRank(12) },
		cluster.Options{Nodes: 3}, killMidRun(1), []int{1}, overTCP)
	requireWarmRestore(t, rep)
}

func TestFTTCPPartitionMinMaxF64(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 4}, partitionMidRun, []int{1, 3}, overTCP)
	requireWarmRestore(t, rep)
}

// logLines collects recovery-driver verdicts; Logf is called only from the
// driver goroutine, but the lock keeps the harness honest under -race.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

// TestFTTCPRejoinKill is the tentpole guard: rank 2 is killed over the TCP
// mesh, its process restarts and rejoins, and the grown epoch must resume
// at full membership with bit-identical results, its restore state shipped
// over the rejoin connection.
func TestFTTCPRejoinKill(t *testing.T) {
	g := ftGraph()
	var logs logLines
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2},
		func(ft *cluster.FTOptions) {
			ft.TCPLoopback = true
			ft.Rejoin = true
			ft.RejoinWindow = 5 * time.Second
			ft.RestartDelay = 30 * time.Millisecond
			ft.Logf = logs.logf
		})
	requireWarmRestore(t, rep)
	if len(rep.Rejoined) != 1 || rep.Rejoined[0] != 2 {
		t.Errorf("rejoined = %v, want [2]", rep.Rejoined)
	}
	if rep.Degraded {
		t.Error("rejoin succeeded but the report claims degradation")
	}
	if rep.FinalMembers != 3 {
		t.Errorf("final members = %d, want full size 3", rep.FinalMembers)
	}
	if rep.RedistributedBytes <= 0 {
		t.Errorf("redistributed bytes = %d, want > 0 (checkpoint state ships over the rejoin connection)", rep.RedistributedBytes)
	}
	if rep.RejoinTime <= 0 {
		t.Errorf("rejoin time = %v, want > 0", rep.RejoinTime)
	}
	if !logs.contains("rejoined") {
		t.Errorf("no rejoin verdict logged; got %q", logs.lines)
	}
}

// TestFTTCPRejoinArith re-runs the rejoin guard over an arithmetic program:
// PageRank's fixed iteration count makes any membership drift visible as a
// value diff.
func TestFTTCPRejoinArith(t *testing.T) {
	g := ftGraph()
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.PageRank(12) },
		cluster.Options{Nodes: 3}, killMidRun(1), []int{1},
		func(ft *cluster.FTOptions) {
			ft.TCPLoopback = true
			ft.Rejoin = true
			ft.RejoinWindow = 5 * time.Second
			ft.RestartDelay = 30 * time.Millisecond
		})
	requireWarmRestore(t, rep)
	if len(rep.Rejoined) != 1 || rep.Rejoined[0] != 1 || rep.FinalMembers != 3 {
		t.Errorf("rejoined = %v, final members = %d; want [1] back in a 3-rank epoch", rep.Rejoined, rep.FinalMembers)
	}
}

// TestFTTCPRejoinWindowMiss restarts the killed rank long after the rejoin
// window closed: the cluster must keep running shrunk — bit-identical, no
// hang, no abort — and log the degradation verdict.
func TestFTTCPRejoinWindowMiss(t *testing.T) {
	g := ftGraph()
	var logs logLines
	rep := ftDiff(t, g, func() *core.Program[float64] { return apps.SSSP(0) },
		cluster.Options{Nodes: 3}, killMidRun(2), []int{2},
		func(ft *cluster.FTOptions) {
			ft.TCPLoopback = true
			ft.Rejoin = true
			ft.RejoinWindow = 100 * time.Millisecond
			ft.RestartDelay = 900 * time.Millisecond
			ft.Logf = logs.logf
		})
	requireWarmRestore(t, rep)
	if !rep.Degraded {
		t.Error("window miss not reported as degradation")
	}
	if len(rep.Rejoined) != 0 {
		t.Errorf("rejoined = %v, want none (the restart missed the window)", rep.Rejoined)
	}
	if rep.FinalMembers != 2 {
		t.Errorf("final members = %d, want shrunk size 2", rep.FinalMembers)
	}
	if !logs.contains("continuing shrunk") {
		t.Errorf("no degradation verdict logged; got %q", logs.lines)
	}
}
