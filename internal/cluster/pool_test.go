package cluster_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"slfe/internal/apps"
	"slfe/internal/cluster"
	"slfe/internal/gen"
)

func TestSessionPoolAcquireRelease(t *testing.T) {
	p, err := cluster.NewSessionPool(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.Healthy() {
		t.Fatal("fresh pool unhealthy")
	}

	a, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	// Third acquire must block until a release frees a slot.
	got := make(chan *cluster.Session, 1)
	go func() {
		s, err := p.Acquire()
		if err != nil {
			t.Error(err)
		}
		got <- s
	}()
	select {
	case <-got:
		t.Fatal("acquire did not block on an exhausted pool")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release(a)
	select {
	case s := <-got:
		p.Release(s)
	case <-time.After(2 * time.Second):
		t.Fatal("release did not unblock a waiting acquire")
	}
	p.Release(b)
}

func TestSessionPoolAcquireCtxCancelled(t *testing.T) {
	p, err := cluster.NewSessionPool(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// The pool is exhausted: a context-bound acquire must give up with the
	// context's error instead of queueing forever behind the held session.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.AcquireCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire on exhausted pool with expired context: %v, want DeadlineExceeded", err)
	}

	// After a release the same pool serves context-bound acquires normally.
	p.Release(s)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	ns, err := p.AcquireCtx(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ns)
}

func TestSessionPoolHealsPoisonedSessions(t *testing.T) {
	p, err := cluster.NewSessionPool(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a poisoned run: an unhealthy session must be replaced, not
	// returned.
	s.Close()
	p.Release(s)

	if st := p.Stats(); st.Rebuilds != 1 || st.RebuildFailures != 0 {
		t.Fatalf("stats after heal: %+v", st)
	}
	if !p.Healthy() {
		t.Fatal("pool degraded after a successful rebuild")
	}

	// The replacement must actually execute runs.
	ns, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ns)
	g := gen.Uniform(50, 200, 4, 7)
	if _, err := cluster.ExecuteSession(ns, g, apps.SSSP(0), cluster.Options{}); err != nil {
		t.Fatalf("rebuilt session cannot run: %v", err)
	}
}

func TestSessionPoolClose(t *testing.T) {
	p, err := cluster.NewSessionPool(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Close while one session is held: Close must wait for the release.
	s, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case <-done:
		t.Fatal("close returned while a session was still held")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release(s)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close hung after all sessions were released")
	}

	if _, err := p.Acquire(); err != cluster.ErrPoolClosed {
		t.Fatalf("acquire on closed pool: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
