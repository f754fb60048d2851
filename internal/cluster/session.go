package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"slfe/internal/comm"
	"slfe/internal/core"
	"slfe/internal/graph"
	"slfe/internal/ws"
)

// Session hosts every engine run: a transport group with one communicator
// and one work-stealing scheduler pool per rank. Execute and ExecuteOver
// open one for a single run; a resident process keeps one open, so repeated
// ExecuteSession calls pay none of the per-invocation setup (fresh
// transport group, fresh worker pool spawn per rank). This is what lets
// slfe-serve re-execute programs after every mutation batch without owning
// the whole process per run.
//
// Runs on one session are serialised: the communicators' collective
// sequence numbers and the scheduler pools are single-flight state. A
// session is safe for concurrent ExecuteSession calls (they queue), but a
// failed run aborts the transport group and poisons the session — callers
// should Close it and build a fresh one (see Healthy).
type Session struct {
	mu         sync.Mutex
	transports []comm.Transport
	comms      []*comm.Comm
	scheds     []*ws.Scheduler
	// closed / poisoned are atomics so Healthy never waits on mu — a run in
	// flight holds mu for its whole duration, and liveness probes must not
	// queue behind it.
	closed   atomic.Bool
	poisoned atomic.Bool
}

// NewSession builds a session over a fresh in-process transport group of
// the given size (nodes <= 0 means 1). Threads sizes each rank's persistent
// work-stealing pool, like Options.Threads. Every pool steals: the bool is
// ignored and kept only so existing callers compile.
func NewSession(nodes, threads int, _ bool) (*Session, error) {
	if nodes <= 0 {
		nodes = 1
	}
	transports, err := comm.NewLocalGroup(nodes)
	if err != nil {
		return nil, err
	}
	return NewSessionOver(transports, threads)
}

// NewSessionOver builds a session over caller-provided transports (e.g. a
// loopback TCP mesh). The session takes ownership: Close closes them.
func NewSessionOver(transports []comm.Transport, threads int) (*Session, error) {
	if len(transports) == 0 {
		return nil, errors.New("cluster: session needs at least one transport")
	}
	s := &Session{
		transports: transports,
		comms:      make([]*comm.Comm, len(transports)),
		scheds:     make([]*ws.Scheduler, len(transports)),
	}
	for i, t := range transports {
		s.comms[i] = comm.NewComm(t)
		s.scheds[i] = ws.New(threads, true)
	}
	return s, nil
}

// Nodes returns the session's cluster size.
func (s *Session) Nodes() int { return len(s.transports) }

// Healthy reports whether the session can still execute runs: false once
// closed or after a run error aborted the transport group. Lock-free: safe
// to call while a run holds the session.
func (s *Session) Healthy() bool {
	return !s.closed.Load() && !s.poisoned.Load()
}

// Close shuts the session's scheduler pools and transports down, waiting
// for an in-flight run to finish first. Idempotent.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sc := range s.scheds {
		sc.Close()
	}
	var first error
	for _, t := range s.transports {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ExecuteSession runs the program on the session's resident cluster with
// the same orchestration as Execute, reusing the open transports,
// communicators and scheduler pools. Nodes and Threads in opt are
// overridden by the session's fixed topology.
func ExecuteSession[V comparable](s *Session, g graph.View, p *core.Program[V], opt Options) (*RunResult[V], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errors.New("cluster: session is closed")
	}
	if s.poisoned.Load() {
		return nil, errors.New("cluster: session was poisoned by an earlier failed run; close it and build a fresh one")
	}
	res, err := runSession(s, g, p, opt)
	if err != nil {
		// A failing rank aborts the whole transport group to unblock its
		// peers, which leaves the group unusable for further runs.
		s.poisoned.Store(true)
		return nil, fmt.Errorf("cluster: session run failed: %w", err)
	}
	return res, nil
}
