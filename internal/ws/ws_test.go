package ws

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// cacheLine is the false-sharing granularity the per-thread padding targets.
const cacheLine = 64

// Neighbouring threads' chunk cursors and reduction accumulators must sit on
// separate cache lines: the element stride of both per-thread arrays is a
// whole number of lines (machine-independent, no timing).
func TestPerThreadStateStride(t *testing.T) {
	spans, acc := make([]span, 2), make([]paddedI64, 2)
	strides := map[string]uintptr{
		"span":      uintptr(unsafe.Pointer(&spans[1])) - uintptr(unsafe.Pointer(&spans[0])),
		"paddedI64": uintptr(unsafe.Pointer(&acc[1])) - uintptr(unsafe.Pointer(&acc[0])),
	}
	for name, stride := range strides {
		if stride == 0 || stride%cacheLine != 0 {
			t.Errorf("%s stride is %d bytes, want a multiple of %d", name, stride, cacheLine)
		}
	}
}

func TestCoversEveryVertexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		const lo, hi = 13, 5000
		seen := make([]int32, hi)
		s := New(threads, true)
		s.Run(lo, hi, func(clo, chi uint32, _ int) {
			for v := clo; v < chi; v++ {
				atomic.AddInt32(&seen[v], 1)
			}
		})
		for v := 0; v < lo; v++ {
			if seen[v] != 0 {
				t.Fatalf("threads=%d: vertex %d below range executed", threads, v)
			}
		}
		for v := lo; v < hi; v++ {
			if seen[v] != 1 {
				t.Fatalf("threads=%d: vertex %d executed %d times", threads, v, seen[v])
			}
		}
	}
}

func TestEmptyRange(t *testing.T) {
	s := New(4, true)
	called := false
	st := s.Run(10, 10, func(_, _ uint32, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
	if len(st.ChunksPerThread) != 4 {
		t.Fatalf("stats have %d threads", len(st.ChunksPerThread))
	}
	s.Run(10, 5, func(_, _ uint32, _ int) { t.Fatal("fn called for inverted range") })
}

func TestChunkBounds(t *testing.T) {
	s := New(3, true)
	s.Run(0, 1000, func(lo, hi uint32, _ int) {
		if hi-lo > ChunkSize {
			t.Errorf("chunk [%d,%d) exceeds ChunkSize", lo, hi)
		}
		if hi > 1000 {
			t.Errorf("chunk [%d,%d) exceeds range", lo, hi)
		}
		if lo%ChunkSize != 0 {
			t.Errorf("chunk start %d not aligned", lo)
		}
	})
}

func TestDefaultThreads(t *testing.T) {
	s := New(0, false)
	if s.Threads() <= 0 {
		t.Fatalf("Threads = %d", s.Threads())
	}
	if New(5, true).Threads() != 5 {
		t.Fatal("explicit thread count ignored")
	}
}

func TestStealingRebalancesSkewedWork(t *testing.T) {
	// Thread 0's first chunk stays busy until the other threads have taken
	// every other chunk of its span: they must steal them, and no schedule
	// lets thread 0 run more than that one chunk of its own span. New
	// ignores its bool, so a scheduler built with false steals too.
	const n, own = 64 * ChunkSize, 16 // thread 0 owns chunks [0, own)
	for _, s := range []*Scheduler{New(4, true), New(4, false)} {
		var stolen, ranOwn atomic.Int64
		taken, giveUp := make(chan struct{}), make(chan struct{})
		// The timeout only turns lost steals into a failure, not a hang.
		timer := time.AfterFunc(10*time.Second, func() { close(giveUp) })
		st := s.Run(0, n, func(lo, _ uint32, thread int) {
			if lo >= own*ChunkSize {
				return
			}
			if thread != 0 {
				if stolen.Add(1) == own-1 {
					close(taken)
				}
				return
			}
			ranOwn.Add(1)
			select {
			case <-taken:
			case <-giveUp:
			}
		})
		timer.Stop()
		s.Close()
		if ranOwn.Load() > 1 || stolen.Load() < own-1 {
			t.Errorf("thread 0 ran %d of its %d chunks and thieves %d", ranOwn.Load(), own, stolen.Load())
		}
		if st.Steals < own-1 {
			t.Errorf("Steals = %d, want at least %d", st.Steals, own-1)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	const n = 10*ChunkSize + 17 // 11 chunks, last one partial
	s := New(2, true)
	var total atomic.Int64
	st := s.Run(0, n, func(lo, hi uint32, _ int) {
		total.Add(int64(hi - lo))
	})
	if total.Load() != n {
		t.Fatalf("covered %d vertices, want %d", total.Load(), n)
	}
	var chunks int64
	for _, c := range st.ChunksPerThread {
		chunks += c
	}
	if chunks != 11 {
		t.Fatalf("executed %d chunks, want 11", chunks)
	}
}

// Property: for any range and thread count, every vertex is visited exactly
// once.
func TestQuickExactCover(t *testing.T) {
	f := func(loRaw, span uint16, threadsRaw uint8) bool {
		lo := uint32(loRaw)
		hi := lo + uint32(span)
		threads := int(threadsRaw)%8 + 1
		var visited sync.Map
		ok := atomic.Bool{}
		ok.Store(true)
		New(threads, true).Run(lo, hi, func(clo, chi uint32, _ int) {
			for v := clo; v < chi; v++ {
				if _, dup := visited.LoadOrStore(v, true); dup {
					ok.Store(false)
				}
			}
		})
		if !ok.Load() {
			return false
		}
		count := 0
		visited.Range(func(_, _ any) bool { count++; return true })
		return count == int(span)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceI64SumsChunkResults(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		s := New(threads, true)
		const lo, hi = 7, 40000
		// Sum of v over [lo, hi) computed chunk-wise must equal the
		// closed form regardless of scheduling.
		got, stats := s.ReduceI64(lo, hi, func(clo, chi uint32, _ int) int64 {
			var sum int64
			for v := clo; v < chi; v++ {
				sum += int64(v)
			}
			return sum
		})
		want := int64(hi-1)*int64(hi)/2 - int64(lo-1)*int64(lo)/2
		if got != want {
			t.Fatalf("threads=%d: ReduceI64 = %d, want %d", threads, got, want)
		}
		var chunks int64
		for _, c := range stats.ChunksPerThread {
			chunks += c
		}
		if chunks != int64((hi-lo+ChunkSize-1)/ChunkSize) {
			t.Fatalf("chunks = %d", chunks)
		}
	}
}

// The pool must be reusable across many phases of different shapes, with
// stats reset between them.
func TestPoolReuseAcrossPhases(t *testing.T) {
	s := New(4, true)
	defer s.Close()
	for round := 0; round < 50; round++ {
		var total atomic.Int64
		st := s.Run(0, 3000, func(lo, hi uint32, _ int) {
			total.Add(int64(hi - lo))
		})
		if total.Load() != 3000 {
			t.Fatalf("round %d: covered %d vertices", round, total.Load())
		}
		var chunks int64
		for _, c := range st.ChunksPerThread {
			chunks += c
		}
		if chunks != 12 {
			t.Fatalf("round %d: stale stats, %d chunks", round, chunks)
		}
		sum, _ := s.ReduceI64(0, 100, func(clo, chi uint32, _ int) int64 {
			return int64(chi - clo)
		})
		if sum != 100 {
			t.Fatalf("round %d: reduce = %d", round, sum)
		}
	}
}

func TestCloseIsIdempotentAndLazy(t *testing.T) {
	// Never-started pool: Close must not panic.
	s := New(4, true)
	s.Close()
	s.Close()

	// Started pool: Close twice is fine, and a later phase panics instead of
	// hanging on a closed channel send.
	s2 := New(3, false)
	s2.Run(0, 10, func(_, _ uint32, _ int) {})
	s2.Close()
	s2.Close()
}

// A steady-state Run/ReduceI64 phase must not allocate: the pool,
// spans, counters and accumulators are all reused. This is the scheduler's
// share of the zero-allocation superstep contract.
func TestPhasesDoNotAllocate(t *testing.T) {
	for _, threads := range []int{1, 4} {
		s := New(threads, true)
		fn := func(_, _ uint32, _ int) {}
		red := func(clo, chi uint32, _ int) int64 { return int64(chi - clo) }
		s.Run(0, 10000, fn) // warm up: pool + arrays
		s.ReduceI64(0, 10000, red)
		if a := testing.AllocsPerRun(20, func() { s.Run(0, 10000, fn) }); a > 0 {
			t.Errorf("threads=%d: Run allocates %.1f objects per phase", threads, a)
		}
		if a := testing.AllocsPerRun(20, func() { s.ReduceI64(0, 10000, red) }); a > 0 {
			t.Errorf("threads=%d: ReduceI64 allocates %.1f objects per phase", threads, a)
		}
		s.Close()
	}
}

// TestRunOverlapDrainsEveryChunkInOrder checks the overlap phase's
// contract: every chunk computed exactly once, drained exactly once, in
// strictly ascending order, and only after its compute finished.
func TestRunOverlapDrainsEveryChunkInOrder(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		const lo, hi = 13, 5000
		s := New(threads, true)
		computed := make([]int32, hi)
		drained := make([]int32, hi)
		prev := int64(-1)
		st := s.RunOverlap(lo, hi, func(clo, chi uint32, _ int) {
			for v := clo; v < chi; v++ {
				atomic.AddInt32(&computed[v], 1)
			}
		}, func(clo, chi uint32) {
			c := int64(clo-lo) / ChunkSize
			if c != prev+1 {
				t.Fatalf("threads=%d: drained chunk %d after %d", threads, c, prev)
			}
			prev = c
			for v := clo; v < chi; v++ {
				if atomic.LoadInt32(&computed[v]) != 1 {
					t.Fatalf("threads=%d: drained vertex %d before/without compute", threads, v)
				}
				drained[v]++
			}
		})
		for v := lo; v < hi; v++ {
			if computed[v] != 1 || drained[v] != 1 {
				t.Fatalf("threads=%d: vertex %d computed %d / drained %d times",
					threads, v, computed[v], drained[v])
			}
		}
		var total int64
		for _, c := range st.ChunksPerThread {
			total += c
		}
		if want := int64(hi-lo+ChunkSize-1) / ChunkSize; total != want {
			t.Fatalf("threads=%d: stats count %d chunks, want %d", threads, total, want)
		}
		s.Close()
	}
}

// TestRunOverlapDrainSeesComputeWrites checks the publication edge: the
// drain must observe everything fn wrote for that chunk without extra
// synchronisation.
func TestRunOverlapDrainSeesComputeWrites(t *testing.T) {
	const hi = 10000
	s := New(4, true)
	defer s.Close()
	vals := make([]uint32, hi) // plain writes in fn, plain reads in drain
	var sum uint64
	s.RunOverlap(0, hi, func(clo, chi uint32, _ int) {
		for v := clo; v < chi; v++ {
			vals[v] = v * 3
		}
	}, func(clo, chi uint32) {
		for v := clo; v < chi; v++ {
			sum += uint64(vals[v])
		}
	})
	var want uint64
	for v := uint32(0); v < hi; v++ {
		want += uint64(v * 3)
	}
	if sum != want {
		t.Fatalf("drain read %d, want %d", sum, want)
	}
}

// TestRunOverlapEmptyAndInterleavedWithRun checks the empty range and that
// Run and RunOverlap phases can alternate on one scheduler (the mark flag
// and flag reuse must not leak between phases).
func TestRunOverlapEmptyAndInterleavedWithRun(t *testing.T) {
	s := New(3, true)
	defer s.Close()
	calls := 0
	s.RunOverlap(7, 7, func(_, _ uint32, _ int) { calls++ }, func(_, _ uint32) { calls++ })
	if calls != 0 {
		t.Fatal("fn/drain called for empty range")
	}
	for round := 0; round < 3; round++ {
		var n atomic.Int64
		s.Run(0, 3000, func(clo, chi uint32, _ int) { n.Add(int64(chi - clo)) })
		if n.Load() != 3000 {
			t.Fatalf("round %d: Run covered %d vertices", round, n.Load())
		}
		drained := 0
		s.RunOverlap(0, 1000+uint32(round)*2000, func(_, _ uint32, _ int) {}, func(clo, chi uint32) {
			drained += int(chi - clo)
		})
		if want := 1000 + round*2000; drained != want {
			t.Fatalf("round %d: drained %d vertices, want %d", round, drained, want)
		}
	}
}
