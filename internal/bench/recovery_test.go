package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"slfe/internal/cluster"
	"slfe/internal/comm"
)

// recoverOnce kills rank 2 of a 3-rank SSSP run mid-way and returns the
// recovery report after checking what no machine can change: exactly one
// recovery epoch and values bit-identical to the undisturbed run. deadAfter
// is the failure detector's silence threshold.
func recoverOnce(t *testing.T, deadAfter time.Duration) *cluster.RecoveryReport {
	t.Helper()
	c := Config{Scale: 4000, Nodes: 3, Threads: 1, PRIters: 8}
	c.defaults()
	g, err := c.Graph("PK")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Program("SSSP", g)
	if err != nil {
		t.Fatal(err)
	}
	opt := cluster.Options{Nodes: 3, Threads: 1}
	base, err := cluster.Execute(g, p, opt)
	if err != nil {
		t.Fatal(err)
	}

	f := comm.NewFaults()
	f.KillAfterSends(2, base.Comm.MessagesSent/2)
	fopt := opt
	fopt.FT = &cluster.FTOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         deadAfter,
		CkptDir:           t.TempDir(),
		CkptEvery:         2,
		Faults:            f,
	}
	fp, err := c.Program("SSSP", g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Execute(g, fp, fopt)
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

// TestRecoveryExperimentRuns smoke-tests the full experiment table at tiny
// scale, including its internal bit-identity verification and the rejoin
// section.
func TestRecoveryExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Recovery(Config{Scale: 4000, Nodes: 3, Threads: 1, PRIters: 6, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Recovery:", "SSSP", "PR", "true", "Rejoin:", "grown_steps_s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment output missing %q:\n%s", want, out)
		}
	}
}
