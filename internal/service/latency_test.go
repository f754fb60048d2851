package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"slfe/internal/gen"
	"slfe/internal/graph"
)

// TestReadPathUnblockedDuringApply is the regression test for the blocked
// read path: while a mutation batch holds the writer lock, /healthz and
// /result must keep answering from atomics and the pinned snapshot. The
// pool's only session is pinned, so the batch takes the writer lock and
// then waits for a session; every read below completes while it provably
// holds the lock and has not returned. TestReadPathLatencyDuringApply
// (perf tag) bounds the same reads' latency.
func TestReadPathUnblockedDuringApply(t *testing.T) {
	g := gen.Uniform(2000, 8000, 4, 71)
	svc, err := New(g, Config{Nodes: 1, Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Register("pr", "f64", 0, 20); err != nil {
		t.Fatal(err)
	}
	h := Handler(svc)
	v0 := svc.Snapshot().Version

	sess, err := svc.pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Released before Close on every return: Close waits for the session.
	release := sync.OnceFunc(func() { svc.pool.Release(sess) })
	defer release()
	applied := make(chan error, 1)
	go func() {
		_, err := svc.Apply(&Batch{Adds: []graph.Edge{{Src: 1, Dst: 2, Weight: 1}}})
		applied <- err
	}()
	// A deadline-bounded poll: only liveness depends on when Apply takes
	// the lock, and nothing else in this test takes it.
	for deadline := time.Now().Add(10 * time.Second); svc.mu.TryLock(); {
		svc.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("Apply never took the writer lock")
		}
		time.Sleep(time.Millisecond)
	}

	const reads = 20
	readsDone := make(chan error, 1)
	go func() {
		for i := 0; i < reads; i++ {
			for _, path := range []string{"/healthz", "/result?app=pr&domain=f64&vertex=42"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				var body struct{ Version uint64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != 200 || err != nil || body.Version != v0 {
					readsDone <- fmt.Errorf("GET %s during Apply: status %d, version %d (want %d): %s", path, rec.Code, body.Version, v0, rec.Body.String())
					return
				}
			}
		}
		readsDone <- nil
	}()
	select {
	case err := <-readsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second): // turns a blocked read into a failure, not a hang
		t.Fatal("reads blocked behind the mutation batch")
	}
	select {
	case err := <-applied:
		t.Fatalf("Apply returned (%v) while the only session was pinned", err)
	default:
	}

	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if v := svc.Snapshot().Version; v != v0+1 {
		t.Fatalf("version after Apply = %d, want %d", v, v0+1)
	}
}
