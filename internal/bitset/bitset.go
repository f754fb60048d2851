// Package bitset provides the fixed-size atomic bitset used for vertex
// frontiers ("active lists") and visited sets throughout the engine: worker
// threads Set and TestAndSet bits concurrently.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Atomic is a fixed-size bitset safe for concurrent Set/TestAndSet/Get.
type Atomic struct {
	n     int
	words []atomic.Uint64
}

// NewAtomic returns an atomic bitset able to hold n bits, all clear.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Atomic{n: n, words: make([]atomic.Uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity in bits.
func (b *Atomic) Len() int { return b.n }

// Set atomically sets bit i.
func (b *Atomic) Set(i int) {
	mask := uint64(1) << (uint(i) % wordBits)
	w := &b.words[i/wordBits]
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// WordAcc batches one goroutine's Sets on an Atomic bitset: bits gather in a
// local mask and are published with one atomic OR per 64-bit word — when a
// Set moves to another word, and on Flush — instead of one CAS per bit. A
// chunk scan that sets ascending bits therefore pays one atomic per word it
// changes; words shared with a neighbouring chunk are still merged
// atomically. Nothing is visible to readers before the publish, so Flush
// before signalling completion.
type WordAcc struct {
	b    *Atomic
	wi   int
	mask uint64
}

// Acc returns an empty accumulator over b.
func (b *Atomic) Acc() WordAcc { return WordAcc{b: b} }

// Set records bit i.
func (a *WordAcc) Set(i int) {
	if wi := i / wordBits; wi != a.wi {
		a.Flush()
		a.wi = wi
	}
	a.mask |= 1 << (uint(i) % wordBits)
}

// Flush publishes the recorded bits.
func (a *WordAcc) Flush() {
	if a.mask != 0 {
		a.b.words[a.wi].Or(a.mask)
		a.mask = 0
	}
}

// TestAndSet atomically sets bit i and reports whether it was previously
// clear (i.e. whether this call changed it).
func (b *Atomic) TestAndSet(i int) bool {
	mask := uint64(1) << (uint(i) % wordBits)
	w := &b.words[i/wordBits]
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// Get reports whether bit i is set.
func (b *Atomic) Get(i int) bool {
	return b.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears every bit. Not safe concurrently with writers.
func (b *Atomic) Reset() {
	for i := range b.words {
		b.words[i].Store(0)
	}
}

// Fill sets every bit. Not safe concurrently with writers.
func (b *Atomic) Fill() {
	for i := range b.words {
		b.words[i].Store(^uint64(0))
	}
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1].Store((1 << uint(rem)) - 1)
	}
}

// Count returns the number of set bits (a snapshot if written concurrently).
func (b *Atomic) Count() int {
	c := 0
	for i := range b.words {
		c += bits.OnesCount64(b.words[i].Load())
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Atomic) Any() bool {
	for i := range b.words {
		if b.words[i].Load() != 0 {
			return true
		}
	}
	return false
}

// CountRange returns the number of set bits in [lo, hi), clamped to
// [0, Len), counting whole words with popcount; each word is an
// independent atomic snapshot.
func (b *Atomic) CountRange(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, b.n)
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi+wordBits-1)/wordBits
	c := 0
	for wi := loW; wi < hiW; wi++ {
		w := b.words[wi].Load()
		if wi == loW {
			w &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if wi == hiW-1 {
			if rem := hi % wordBits; rem != 0 {
				w &= (1 << uint(rem)) - 1
			}
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// Range calls fn for every set bit in ascending order, stopping early if fn
// returns false. The iteration is a snapshot per word.
func (b *Atomic) Range(fn func(i int) bool) {
	for wi := range b.words {
		w := b.words[wi].Load()
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Iter walks the set bits of a window of an Atomic bitset without
// callbacks. Unlike a closure walk (which makes the caller's captured
// locals escape to the heap), an Iter is a plain value that lives on the
// caller's stack — the engine's steady-state loops use it to stay
// allocation-free. Each word is an independent atomic snapshot, like Range.
type Iter struct {
	b   *Atomic
	w   uint64 // unconsumed bits of the current word
	wi  int    // current word index
	hiW int    // one past the last word index
	hi  int    // bit bound masking the final word
}

// IterIn returns an iterator over the set bits of [lo, hi) in ascending
// order. Use it as:
//
//	it := b.IterIn(lo, hi)
//	for i := it.Next(); i >= 0; i = it.Next() { ... }
func (b *Atomic) IterIn(lo, hi int) Iter {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return Iter{}
	}
	it := Iter{b: b, wi: lo / wordBits, hiW: (hi + wordBits - 1) / wordBits, hi: hi}
	w := b.words[it.wi].Load() &^ ((1 << (uint(lo) % wordBits)) - 1)
	if it.wi == it.hiW-1 {
		if rem := hi % wordBits; rem != 0 {
			w &= (1 << uint(rem)) - 1
		}
	}
	it.w = w
	return it
}

// Next returns the next set bit, or -1 when the window is exhausted.
func (it *Iter) Next() int {
	for {
		if it.w != 0 {
			tz := bits.TrailingZeros64(it.w)
			it.w &= it.w - 1
			return it.wi*wordBits + tz
		}
		it.wi++
		if it.wi >= it.hiW {
			return -1
		}
		w := it.b.words[it.wi].Load()
		if it.wi == it.hiW-1 {
			if rem := it.hi % wordBits; rem != 0 {
				w &= (1 << uint(rem)) - 1
			}
		}
		it.w = w
	}
}
