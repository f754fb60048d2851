//go:build perf

package cluster_test

// Wall-clock guards. Their verdicts depend on the machine and on what else
// it is running, so they are kept out of `go test ./...` behind the perf
// tag; CI's chaos job runs them with -tags perf. The machine-independent
// half (bit-identity) is TestRecoveryBitIdentical in recover_test.go.

import (
	"testing"
	"time"
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
