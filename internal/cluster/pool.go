package cluster

import (
	"context"
	"errors"
	"log"
	"sync/atomic"
)

// ErrPoolClosed is returned by Acquire once the pool shut down.
var ErrPoolClosed = errors.New("cluster: session pool is closed")

// PoolStats are cumulative session-lifecycle counters.
type PoolStats struct {
	// Size is the pool's fixed session count (the execution concurrency
	// bound).
	Size int
	// Rebuilds counts poisoned sessions successfully replaced.
	Rebuilds int64
	// RebuildFailures counts replacement attempts that failed; the pool is
	// degraded while the latest attempt failed.
	RebuildFailures int64
}

// SessionPool is a fixed-size pool of resident Sessions. One Session
// serialises its runs (the communicators' collective sequence numbers are
// single-flight state), so concurrent program execution needs one session
// per in-flight run: the pool bounds that concurrency and heals poisoned
// sessions on release instead of silently discarding the rebuild error
// (the pre-pool recoverSession bug).
//
// Acquire blocks until a session is free; Release returns it, replacing it
// first if the run poisoned it. Health is served from atomics so liveness
// probes never queue behind an executing run.
type SessionPool struct {
	nodes   int
	threads int
	size    int
	// created counts slots actually put into circulation; it differs from
	// size only when the constructor failed partway.
	created int
	// slots holds every pooled session; a nil element is a broken slot
	// whose rebuild failed and will be retried on the next Acquire.
	slots    chan *Session
	done     chan struct{}
	closed   atomic.Bool
	degraded atomic.Bool

	rebuilds     atomic.Int64
	rebuildFails atomic.Int64
}

// NewSessionPool builds size sessions eagerly (size <= 0 means 1) with the
// given per-session topology. Building is all-or-nothing: on error every
// already-built session is closed.
func NewSessionPool(size, nodes, threads int) (*SessionPool, error) {
	if size <= 0 {
		size = 1
	}
	p := &SessionPool{
		nodes: nodes, threads: threads,
		size:  size,
		slots: make(chan *Session, size),
		done:  make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		s, err := NewSession(nodes, threads, true)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots <- s
		p.created++
	}
	return p, nil
}

// Size is the pool's fixed session count.
func (p *SessionPool) Size() int { return p.size }

// Healthy reports whether the pool can hand out sessions: false once closed
// or while the latest session rebuild failed. Lock-free.
func (p *SessionPool) Healthy() bool {
	return !p.closed.Load() && !p.degraded.Load()
}

// Stats snapshots the lifecycle counters.
func (p *SessionPool) Stats() PoolStats {
	return PoolStats{
		Size:            p.size,
		Rebuilds:        p.rebuilds.Load(),
		RebuildFailures: p.rebuildFails.Load(),
	}
}

// Acquire blocks until a session is free (or the pool closes). A broken
// slot — a prior release whose rebuild failed — is retried here, so one
// failed rebuild degrades the pool only until a later attempt succeeds.
func (p *SessionPool) Acquire() (*Session, error) {
	return p.AcquireCtx(context.Background())
}

// AcquireCtx is Acquire with a deadline: it additionally gives up with the
// context's error when ctx is cancelled first. This is what keeps one
// wedged or long run from pinning every caller behind it forever — request
// handlers pass their request context and fail fast instead of queueing
// without bound.
func (p *SessionPool) AcquireCtx(ctx context.Context) (*Session, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.done:
		return nil, ErrPoolClosed
	case s := <-p.slots:
		if p.closed.Load() {
			// Close is draining the slots; hand the item back to it.
			p.slots <- s
			return nil, ErrPoolClosed
		}
		if s == nil {
			return p.rebuild()
		}
		return s, nil
	}
}

// Release returns a session to the pool, replacing it first if its run
// poisoned it. Every Acquire must be paired with exactly one Release.
func (p *SessionPool) Release(s *Session) {
	if s != nil && s.Healthy() {
		p.slots <- s
		return
	}
	if s != nil {
		s.Close()
	}
	ns, err := p.rebuild()
	if err != nil {
		return // rebuild pushed the broken slot back and logged
	}
	p.slots <- ns
}

// rebuild replaces one broken slot with a fresh session, keeping the slot
// count invariant: on failure the broken slot goes back for a later retry.
func (p *SessionPool) rebuild() (*Session, error) {
	s, err := NewSession(p.nodes, p.threads, true)
	if err != nil {
		p.rebuildFails.Add(1)
		p.degraded.Store(true)
		log.Printf("cluster: session rebuild failed (pool degraded): %v", err)
		p.slots <- nil
		return nil, err
	}
	p.rebuilds.Add(1)
	p.degraded.Store(false)
	return s, nil
}

// Close shuts the pool down, waiting for in-flight runs to release their
// sessions before closing them. Idempotent.
func (p *SessionPool) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(p.done)
	var first error
	// Every slot in circulation is either in the channel or held by a run
	// that will Release it; a blocked Acquire that races the drain pushes
	// its item straight back. Receiving exactly created items therefore
	// terminates and closes every live session.
	for drained := 0; drained < p.created; drained++ {
		if s := <-p.slots; s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
