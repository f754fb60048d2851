package service

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"slfe/internal/graph"
)

// reexecuteAll is the mutation batch's job scheduler: every registered
// program moves to the mutated graph concurrently, one pooled session per
// in-flight program, with the pool's size as the concurrency bound
// (Acquire blocks once every session is running a program).
//
// Concurrency is free of cross-program state: each program owns its runner
// and resume values; the mutated graphs are immutable, and so is the one
// guidance each graph's shared slot holds (filled once even under
// concurrent first runs, and identical whichever run fills it); and a
// session executes exactly one program at a time. Results are therefore
// bit-identical to the serial pre-pool path — regression-proved by
// TestConcurrentMatchesSerial — and the batch's wall-clock cost drops from
// the sum of the programs' runtimes toward the maximum.
//
// Errors abort the batch: the caller publishes no snapshot unless every
// program re-ran. The first error in program-id order is returned so
// failure messages are deterministic.
func (s *Service) reexecuteAll(ctx context.Context, cur *Snapshot, g2, sym2 *graph.Graph, symAdds, adds []graph.Edge, full bool) (map[string]*Program, error) {
	out := make(map[string]*Program, len(cur.Programs))
	errs := make(map[string]error, len(cur.Programs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, p := range cur.Programs {
		wg.Add(1)
		go func(id string, p *Program) {
			defer wg.Done()
			np, err := s.reexecuteOne(ctx, p, g2, sym2, symAdds, adds, full)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[id] = err
				return
			}
			out[id] = np
		}(id, p)
	}
	wg.Wait()
	if len(errs) > 0 {
		ids := make([]string, 0, len(errs))
		for id := range errs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("%s: %w", ids[0], errs[ids[0]])
	}
	return out, nil
}

// reexecuteOne runs one program's re-execution on a session acquired for
// exactly its duration; Release heals the session if the run poisoned it.
// The acquire is context-bound: a cancelled request stops queueing instead
// of waiting on a session a wedged run may never release.
func (s *Service) reexecuteOne(ctx context.Context, p *Program, g2, sym2 *graph.Graph, symAdds, adds []graph.Edge, full bool) (*Program, error) {
	sess, err := s.pool.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer s.pool.Release(sess)
	return s.reexecute(sess, p, g2, sym2, symAdds, adds, full)
}
