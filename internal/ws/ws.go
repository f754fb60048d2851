// Package ws implements the fine-grained intra-node work-stealing scheduler
// of §3.6: each vertex range is split into mini-chunks of 256 vertices;
// every thread first drains its own statically assigned span of chunks
// through an atomic cursor, then steals remaining chunks from the busiest
// peer. Shared cursors are advanced with atomic fetch-and-add (the paper's
// __sync_fetch_and_* accesses).
//
// The scheduler is a persistent worker pool: the pool goroutines are spawned
// lazily on the first parallel phase and parked on per-worker channels
// between phases, and every per-phase array (spans, per-thread counters,
// reduction accumulators) is owned by the scheduler and reused. A
// steady-state phase therefore performs no heap allocations and no goroutine
// creation — only channel wake-ups. A Scheduler is NOT safe for concurrent
// use: one phase (Run / RunOverlap / ReduceI64) runs at a time,
// always dispatched from the same goroutine discipline the engine already
// follows.
package ws

import (
	"runtime"
	"sync/atomic"
)

// ChunkSize is the paper's mini-chunk granularity (§3.6: "each mini-chunk
// contains 256 vertices").
const ChunkSize = 256

// Stats reports one Run's distribution of work.
//
// ChunksPerThread aliases scheduler-owned storage that the next Run
// overwrites; copy it if it must outlive the next phase.
type Stats struct {
	ChunksPerThread []int64 // chunks executed by each thread
	Steals          int64   // chunks executed by a non-owner thread
}

// span is one thread's chunk assignment [next, end), padded to a full
// cache line so a thief's fetch-and-add on one cursor never invalidates
// its neighbour's.
type span struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// paddedI64 keeps per-thread accumulators on separate cache lines.
type paddedI64 struct {
	v int64
	_ [56]byte
}

// Scheduler executes chunked parallel loops with optional stealing over a
// persistent worker pool.
type Scheduler struct {
	threads  int
	stealing bool

	// Persistent pool: workers 1..threads-1 park on wake[t] between phases;
	// the dispatching goroutine acts as worker 0. Spawned lazily so
	// schedulers that never run a phase cost nothing.
	started bool
	closed  bool
	wake    []chan struct{}
	done    chan struct{}

	// Phase state, written by the dispatcher before the wake send (the
	// channel send/receive pair is the happens-before edge workers rely on).
	body func(t int)

	// Run state (reused across phases).
	spans     []span
	perThread []int64
	steals    atomic.Int64
	lo, hi    uint32
	fn        func(chunkLo, chunkHi uint32, thread int)

	// RunOverlap state: per-chunk completion flags plus a buffered
	// completion channel (both reused across phases) and whether exec
	// should mark them. The flags give the dispatcher its ascending-order
	// cursor; the channel lets it block between completions instead of
	// burning a core spinning. mark is written by the dispatcher before
	// the wake send and reset after the last done receive, so the pool
	// goroutines always observe a settled value.
	flags     []atomic.Uint32
	chunkDone chan int64
	mark      bool

	// ReduceI64 state.
	acc   []paddedI64
	redFn func(chunkLo, chunkHi uint32, thread int) int64

	// Method values bound once at construction so dispatching a phase never
	// allocates a closure.
	runBody func(t int)
	redWrap func(chunkLo, chunkHi uint32, thread int)
}

// New returns a scheduler with the given thread count (<=0 means
// GOMAXPROCS) and stealing policy.
func New(threads int, stealing bool) *Scheduler {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{threads: threads, stealing: stealing}
	s.runBody = s.runWorker
	s.redWrap = s.reduceChunk
	return s
}

// Threads returns the configured worker-thread count.
func (s *Scheduler) Threads() int { return s.threads }

// Close parks the pool permanently: the pool goroutines exit and any later
// phase panics. Closing a scheduler whose pool never started (or closing
// twice) is a no-op. Close must not race a running phase.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.wake {
		if ch != nil {
			close(ch)
		}
	}
}

// ensurePool spawns the parked pool goroutines on first use.
func (s *Scheduler) ensurePool() {
	if s.started {
		return
	}
	if s.closed {
		panic("ws: scheduler used after Close")
	}
	s.started = true
	s.wake = make([]chan struct{}, s.threads)
	s.done = make(chan struct{}, s.threads)
	for t := 1; t < s.threads; t++ {
		s.wake[t] = make(chan struct{}, 1)
		go s.park(t)
	}
}

// park is the pool goroutine's lifetime: wait for a phase, run it, report
// completion, repeat until Close.
func (s *Scheduler) park(t int) {
	for range s.wake[t] {
		s.body(t)
		s.done <- struct{}{}
	}
}

// dispatch runs body(t) on workers 0..workers-1, the dispatcher itself
// serving as worker 0, and returns after every worker finished.
func (s *Scheduler) dispatch(body func(t int), workers int) {
	if workers <= 1 {
		body(0)
		return
	}
	s.ensurePool()
	s.body = body
	for t := 1; t < workers; t++ {
		s.wake[t] <- struct{}{}
	}
	body(0)
	for i := 1; i < workers; i++ {
		<-s.done
	}
}

// Run executes fn over every mini-chunk of the vertex range [lo, hi).
// fn(chunkLo, chunkHi, thread) receives half-open vertex sub-ranges of at
// most ChunkSize vertices and the executing thread's id; it must be safe to
// call concurrently from different threads on disjoint ranges. fn must not
// re-enter the scheduler.
func (s *Scheduler) Run(lo, hi uint32, fn func(chunkLo, chunkHi uint32, thread int)) Stats {
	if s.perThread == nil {
		s.perThread = make([]int64, s.threads)
		s.spans = make([]span, s.threads)
	}
	for t := range s.perThread {
		s.perThread[t] = 0
	}
	s.steals.Store(0)
	if hi <= lo {
		return Stats{ChunksPerThread: s.perThread}
	}
	nChunks := int64(hi-lo+ChunkSize-1) / ChunkSize
	for t := 0; t < s.threads; t++ {
		s.spans[t].next.Store(int64(t) * nChunks / int64(s.threads))
		s.spans[t].end = int64(t+1) * nChunks / int64(s.threads)
	}
	s.lo, s.hi, s.fn = lo, hi, fn
	s.dispatch(s.runBody, s.threads)
	s.fn = nil
	return Stats{ChunksPerThread: s.perThread, Steals: s.steals.Load()}
}

// exec maps chunk ids to vertex sub-ranges, clamping the final chunk (and
// guarding uint32 overflow). Under RunOverlap it publishes the chunk's
// completion after fn returns; the atomic store is the happens-before edge
// the draining dispatcher relies on to read the chunk's results.
func (s *Scheduler) exec(chunk int64, thread int) {
	clo := s.lo + uint32(chunk)*ChunkSize
	chi := clo + ChunkSize
	if chi > s.hi || chi < clo {
		chi = s.hi
	}
	s.fn(clo, chi, thread)
	if s.mark {
		s.flags[chunk].Store(1)
		s.chunkDone <- chunk // buffered to nChunks: never blocks
	}
}

// runWorker is one thread's share of a Run phase.
func (s *Scheduler) runWorker(t int) {
	own := &s.spans[t]
	count := int64(0)
	// Phase 1: drain the thread's own span.
	for {
		c := own.next.Add(1) - 1
		if c >= own.end {
			break
		}
		s.exec(c, t)
		count++
	}
	// Phase 2: steal from the busiest peer until all spans drain. Remaining
	// work is re-read once per pass (not once per chunk): the chosen victim
	// is drained until its cursor passes its end, and a pass that yields
	// nothing — every claim lost against an already-drained victim — backs
	// off with Gosched instead of immediately rescanning every span.
	if s.stealing {
		stolen := int64(0)
		for {
			victim := -1
			var best int64
			for v := range s.spans {
				if v == t {
					continue
				}
				if rem := s.spans[v].end - s.spans[v].next.Load(); rem > best {
					best = rem
					victim = v
				}
			}
			if victim < 0 {
				break // every span drained
			}
			vs := &s.spans[victim]
			got := false
			for {
				c := vs.next.Add(1) - 1
				if c >= vs.end {
					break
				}
				s.exec(c, t)
				count++
				stolen++
				got = true
			}
			if !got {
				runtime.Gosched() // lost the race; yield before the next pass
			}
		}
		if stolen > 0 {
			s.steals.Add(stolen)
		}
	}
	s.perThread[t] = count
}

// RunOverlap executes fn over every mini-chunk of [lo, hi) like Run, but
// the dispatching goroutine does not compute: it drains completed chunks
// in ascending chunk order through drain while workers 1..threads-1
// execute (and steal) chunks. This is the overlap phase of the pipelined
// superstep — drain typically encodes and streams a chunk's deltas while
// the remaining chunks are still computing. drain(chunkLo, chunkHi) is
// called exactly once per chunk, strictly in ascending order, and only
// after fn finished that chunk (the completion flag's atomic store/load
// pair is the happens-before edge, so drain may freely read what fn
// wrote). With a single thread there is no spare worker: the dispatcher
// interleaves, computing each chunk and draining it immediately — the
// stream still leaves early, just without parallel overlap. Like every
// phase, fn must not re-enter the scheduler; drain runs on the dispatching
// goroutine and so may touch dispatcher-owned state (e.g. a Comm).
func (s *Scheduler) RunOverlap(lo, hi uint32, fn func(chunkLo, chunkHi uint32, thread int), drain func(chunkLo, chunkHi uint32)) Stats {
	if s.perThread == nil {
		s.perThread = make([]int64, s.threads)
		s.spans = make([]span, s.threads)
	}
	for t := range s.perThread {
		s.perThread[t] = 0
	}
	s.steals.Store(0)
	if hi <= lo {
		return Stats{ChunksPerThread: s.perThread}
	}
	nChunks := int64(hi-lo+ChunkSize-1) / ChunkSize
	s.lo, s.hi, s.fn = lo, hi, fn
	chunkBounds := func(c int64) (uint32, uint32) {
		clo := lo + uint32(c)*ChunkSize
		chi := clo + ChunkSize
		if chi > hi || chi < clo {
			chi = hi
		}
		return clo, chi
	}
	if s.threads <= 1 {
		for c := int64(0); c < nChunks; c++ {
			s.exec(c, 0)
			s.perThread[0]++
			drain(chunkBounds(c))
		}
		s.fn = nil
		return Stats{ChunksPerThread: s.perThread}
	}
	if int64(cap(s.flags)) < nChunks {
		s.flags = make([]atomic.Uint32, nChunks)
	} else {
		s.flags = s.flags[:nChunks]
		for i := range s.flags {
			s.flags[i].Store(0)
		}
	}
	if int64(cap(s.chunkDone)) < nChunks {
		s.chunkDone = make(chan int64, nChunks)
	}
	// The dispatcher's span is empty: workers 1..threads-1 share the chunks.
	w := int64(s.threads - 1)
	s.spans[0].next.Store(0)
	s.spans[0].end = 0
	for t := 1; t < s.threads; t++ {
		s.spans[t].next.Store(int64(t-1) * nChunks / w)
		s.spans[t].end = int64(t) * nChunks / w
	}
	s.ensurePool()
	s.mark = true
	s.body = s.runBody
	for t := 1; t < s.threads; t++ {
		s.wake[t] <- struct{}{}
	}
	// Drain in ascending chunk order, blocking on the completion channel
	// (not spinning) while the next chunk is still computing. A received
	// token only says "some chunk finished", so the cursor re-checks its
	// own flag; chunk c's own token guarantees the wait terminates. Every
	// token is consumed before the phase ends so the channel starts the
	// next phase empty.
	consumed := int64(0)
	for c := int64(0); c < nChunks; c++ {
		for s.flags[c].Load() == 0 {
			<-s.chunkDone
			consumed++
		}
		drain(chunkBounds(c))
	}
	for ; consumed < nChunks; consumed++ {
		<-s.chunkDone
	}
	for i := 1; i < s.threads; i++ {
		<-s.done
	}
	s.mark = false
	s.fn = nil
	return Stats{ChunksPerThread: s.perThread, Steals: s.steals.Load()}
}

// ReduceI64 runs fn over every mini-chunk of [lo, hi) like Run and returns
// the sum of the per-chunk results. Each thread folds its chunks into a
// cache-line-padded local accumulator; the partials are summed after the
// barrier, so fn needs no synchronisation of its own.
func (s *Scheduler) ReduceI64(lo, hi uint32, fn func(chunkLo, chunkHi uint32, thread int) int64) (int64, Stats) {
	if s.acc == nil {
		s.acc = make([]paddedI64, s.threads)
	}
	for t := range s.acc {
		s.acc[t].v = 0
	}
	s.redFn = fn
	stats := s.Run(lo, hi, s.redWrap)
	s.redFn = nil
	var total int64
	for t := range s.acc {
		total += s.acc[t].v
	}
	return total, stats
}

// reduceChunk folds one chunk's result into the executing thread's padded
// accumulator.
func (s *Scheduler) reduceChunk(clo, chi uint32, th int) {
	s.acc[th].v += s.redFn(clo, chi, th)
}
