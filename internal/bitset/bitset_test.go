package bitset

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := NewAtomic(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set on fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) || b.Count() != 1 {
			t.Fatalf("bit %d: Get = %v, Count = %d after Set", i, b.Get(i), b.Count())
		}
		b.Reset()
		if b.Get(i) {
			t.Fatalf("bit %d still set after Reset", i)
		}
	}
}

func TestCountFillReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 1000} {
		b := NewAtomic(n)
		if got := b.Count(); got != 0 {
			t.Fatalf("n=%d: fresh Count = %d", n, got)
		}
		b.Fill()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: filled Count = %d", n, got)
		}
		if n > 0 && !b.Any() {
			t.Fatalf("n=%d: Any false after Fill", n)
		}
		b.Reset()
		if b.Any() {
			t.Fatalf("n=%d: Any true after Reset", n)
		}
	}
}

func TestRangeOrder(t *testing.T) {
	b := NewAtomic(200)
	want := []int{0, 3, 64, 65, 127, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
	// Early stop.
	var count int
	b.Range(func(i int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-stop Range visited %d bits, want 2", count)
	}
}

// TestNextSet: the first Next of IterIn(from, Len) is the first set bit at
// or after from, or -1.
func TestNextSet(t *testing.T) {
	b := NewAtomic(300)
	b.Set(5)
	b.Set(64)
	b.Set(299)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 299}, {299, 299}, {300, -1}, {-3, 5},
	}
	for _, c := range cases {
		it := b.IterIn(c.from, b.Len())
		if got := it.Next(); got != c.want {
			t.Errorf("IterIn(%d, %d).Next() = %d, want %d", c.from, b.Len(), got, c.want)
		}
	}
	empty := NewAtomic(10).IterIn(0, 10)
	if got := empty.Next(); got != -1 {
		t.Errorf("Next on empty = %d, want -1", got)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAtomic(-1) did not panic")
		}
	}()
	NewAtomic(-1)
}

func TestAtomicBasics(t *testing.T) {
	b := NewAtomic(130)
	b.Set(129)
	if !b.Get(129) {
		t.Fatal("Get after Set failed")
	}
	if b.TestAndSet(129) {
		t.Fatal("TestAndSet on a set bit returned true")
	}
	if !b.TestAndSet(7) {
		t.Fatal("TestAndSet on a clear bit returned false")
	}
	if got := b.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	b.Fill()
	if got := b.Count(); got != 130 {
		t.Fatalf("Count after Fill = %d, want 130", got)
	}
	if got := b.CountRange(0, 10); got != 10 {
		t.Fatalf("CountRange = %d, want 10", got)
	}
	b.Reset()
	if b.Any() {
		t.Fatal("Any true after Reset")
	}
}

func TestAtomicConcurrentSet(t *testing.T) {
	const n = 4096
	b := NewAtomic(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				b.Set(i)
			}
		}(g)
	}
	wg.Wait()
	if got := b.Count(); got != n {
		t.Fatalf("concurrent Set lost bits: Count = %d, want %d", got, n)
	}
}

func TestAtomicTestAndSetExactlyOnce(t *testing.T) {
	const n = 1024
	b := NewAtomic(n)
	wins := make([]int, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.TestAndSet(i) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != n {
		t.Fatalf("TestAndSet won %d times across goroutines, want %d", total, n)
	}
}

// Property: for any set of indices, Count equals the number of distinct
// indices and Range visits exactly those indices.
func TestQuickSetCountRange(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		b := NewAtomic(n)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			b.Set(i)
			distinct[i] = true
		}
		if b.Count() != len(distinct) {
			return false
		}
		ok := true
		b.Range(func(i int) bool {
			if !distinct[i] {
				ok = false
				return false
			}
			delete(distinct, i)
			return true
		})
		return ok && len(distinct) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: an atomic bitset agrees with a plain []bool under the same
// Sets and TestAndSets, and TestAndSet reports whether the bit was clear.
func TestQuickAtomicMatchesPlain(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 2048
		p := make([]bool, n)
		a := NewAtomic(n)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := int(op) % n
			if rng.Intn(2) == 0 {
				a.Set(i)
			} else if a.TestAndSet(i) == p[i] {
				return false
			}
			p[i] = true
		}
		count := 0
		for i := 0; i < n; i++ {
			if p[i] {
				count++
			}
			if p[i] != a.Get(i) {
				return false
			}
		}
		return a.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAtomicSet(b *testing.B) {
	s := NewAtomic(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<20 - 1))
	}
}

func BenchmarkRange(b *testing.B) {
	s := NewAtomic(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := 0
		s.Range(func(j int) bool { sum += j; return true })
	}
}

// setIn lists the set bits of [lo, hi), clamped to [0, Len), one Get per
// bit: the oracle the windowed walks are checked against.
func setIn(b *Atomic, lo, hi int) []int {
	var out []int
	for i := max(lo, 0); i < min(hi, b.Len()); i++ {
		if b.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// iterIn collects what IterIn(lo, hi) visits.
func iterIn(b *Atomic, lo, hi int) []int {
	var out []int
	it := b.IterIn(lo, hi)
	for i := it.Next(); i >= 0; i = it.Next() {
		out = append(out, i)
	}
	return out
}

// Property: a window walk over [lo, hi) visits exactly the set bits Range
// visits restricted to the window, in the same ascending order, and
// CountRange agrees with the visit count.
func TestQuickRangeInMatchesRange(t *testing.T) {
	f := func(raw []uint16, loRaw, hiRaw uint16) bool {
		const n = 1<<16 + 13 // odd tail exercises the last-word mask
		b := NewAtomic(n)
		for _, r := range raw {
			b.Set(int(r))
		}
		lo, hi := int(loRaw), int(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []int
		b.Range(func(i int) bool {
			if i >= lo && i < hi {
				want = append(want, i)
			}
			return true
		})
		return slices.Equal(iterIn(b, lo, hi), want) && b.CountRange(lo, hi) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeInBoundsClamped(t *testing.T) {
	b := NewAtomic(100)
	b.Set(0)
	b.Set(99)
	if got := iterIn(b, -5, 1000); !slices.Equal(got, []int{0, 99}) {
		t.Fatalf("clamped IterIn visited %v", got)
	}
	if b.CountRange(-5, 1000) != 2 {
		t.Fatalf("clamped CountRange = %d", b.CountRange(-5, 1000))
	}
	if got := iterIn(b, 50, 50); got != nil || b.CountRange(50, 50) != 0 {
		t.Fatalf("empty window visited %v, counted %d", got, b.CountRange(50, 50))
	}
}

// Iter must visit exactly the set bits Get reports in the window, for
// arbitrary windows, and must not allocate.
func TestIterMatchesRangeIn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		b := NewAtomic(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		lo := rng.Intn(n+65) - 32
		hi := lo + rng.Intn(n+65)
		if got, want := iterIn(b, lo, hi), setIn(b, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("n=%d [%d,%d): got %v, want %v", n, lo, hi, got, want)
		}
	}
}

func TestIterDoesNotAllocate(t *testing.T) {
	b := NewAtomic(100000)
	for i := 0; i < 100000; i += 7 {
		b.Set(i)
	}
	sum := 0
	allocs := testing.AllocsPerRun(10, func() {
		it := b.IterIn(13, 99990)
		for i := it.Next(); i >= 0; i = it.Next() {
			sum += i
		}
	})
	if allocs > 0 {
		t.Fatalf("Iter allocates %.1f objects per scan", allocs)
	}
	_ = sum
}

// TestWordAccChunks: chunk scans whose edges fall inside 64-bit words, run
// from several goroutines, publish exactly the bits a per-bit Set would —
// none lost where two chunks share a word, none visible before the publish.
func TestWordAccChunks(t *testing.T) {
	const n, chunk, workers = 1000, 100, 4 // 100 is not a multiple of 64
	want := func(i int) bool { return i%3 == 0 || i%64 == 63 }
	b := NewAtomic(n)

	acc := b.Acc()
	acc.Set(5)
	if b.Any() {
		t.Fatal("a recorded bit is visible before the accumulator leaves its word")
	}
	acc.Set(70) // moves to word 1: publishes word 0
	if !b.Get(5) || b.Get(70) {
		t.Fatalf("after moving words: bit 5 = %v (want true), bit 70 = %v (want false)", b.Get(5), b.Get(70))
	}
	acc.Flush()
	acc.Flush() // idempotent
	if !b.Get(70) || b.Count() != 2 {
		t.Fatalf("after Flush: bit 70 = %v, Count = %d (want true, 2)", b.Get(70), b.Count())
	}
	b.Reset()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * chunk; lo < n; lo += workers * chunk {
				acc := b.Acc()
				for i := lo; i < min(lo+chunk, n); i++ {
					if want(i) {
						acc.Set(i)
					}
				}
				acc.Flush()
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if b.Get(i) != want(i) {
			t.Fatalf("bit %d = %v, want %v", i, b.Get(i), want(i))
		}
	}
}

// TestWordAccOneWord: 64 goroutines each publish one bit of the same word.
func TestWordAccOneWord(t *testing.T) {
	b := NewAtomic(200)
	var wg sync.WaitGroup
	for i := 64; i < 128; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := b.Acc()
			acc.Set(i)
			acc.Flush()
		}(i)
	}
	wg.Wait()
	if got := b.CountRange(64, 128); got != 64 || b.Count() != 64 {
		t.Fatalf("concurrent publishes to one word lost bits: %d of 64 set, %d in total", got, b.Count())
	}
}
