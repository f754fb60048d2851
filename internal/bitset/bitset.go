// Package bitset provides fixed-size bitsets used for vertex frontiers
// ("active lists") and visited sets throughout the engine. The Atomic
// variant supports concurrent Set/Clear from worker threads; the plain
// variant is faster for single-threaded phases.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bits is a fixed-size, non-concurrent bitset.
type Bits struct {
	n     int
	words []uint64
}

// New returns a bitset able to hold n bits, all clear.
func New(n int) *Bits {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Bits{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity in bits.
func (b *Bits) Len() int { return b.n }

// Set sets bit i.
func (b *Bits) Set(i int) { b.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
func (b *Bits) Clear(i int) { b.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears every bit.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill sets every bit in [0, Len).
func (b *Bits) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim clears the unused high bits of the last word so Count stays exact.
func (b *Bits) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets b to b|other. Panics if sizes differ.
func (b *Bits) Or(other *Bits) {
	if b.n != other.n {
		panic("bitset: size mismatch in Or")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b to b&other. Panics if sizes differ.
func (b *Bits) And(other *Bits) {
	if b.n != other.n {
		panic("bitset: size mismatch in And")
	}
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// CopyFrom overwrites b with other's contents. Panics if sizes differ.
func (b *Bits) CopyFrom(other *Bits) {
	if b.n != other.n {
		panic("bitset: size mismatch in CopyFrom")
	}
	copy(b.words, other.words)
}

// Clone returns an independent copy.
func (b *Bits) Clone() *Bits {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Range calls fn for every set bit in ascending order, stopping early if fn
// returns false.
func (b *Bits) Range(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (b *Bits) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

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

// Clear atomically clears bit i.
func (b *Atomic) Clear(i int) {
	mask := uint64(1) << (uint(i) % wordBits)
	w := &b.words[i/wordBits]
	for {
		old := w.Load()
		if old&mask == 0 || w.CompareAndSwap(old, old&^mask) {
			return
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

// rangeWords calls fn with each word of [lo, hi) in ascending order, the
// first and last words masked to the window, until fn returns false. It
// owns the clamping and partial-word masking shared by CountRange and
// RangeIn; each word is an independent atomic snapshot.
func (b *Atomic) rangeWords(lo, hi int, fn func(wi int, w uint64) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return
	}
	loW, hiW := lo/wordBits, (hi+wordBits-1)/wordBits
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
		if !fn(wi, w) {
			return
		}
	}
}

// CountRange returns the number of set bits in [lo, hi), counting whole
// words with popcount.
func (b *Atomic) CountRange(lo, hi int) int {
	c := 0
	b.rangeWords(lo, hi, func(_ int, w uint64) bool {
		c += bits.OnesCount64(w)
		return true
	})
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

// RangeIn calls fn for every set bit in [lo, hi) in ascending order,
// stopping early if fn returns false. Like Range, the iteration is a
// snapshot per word; disjoint ranges can be scanned concurrently.
func (b *Atomic) RangeIn(lo, hi int, fn func(i int) bool) {
	b.rangeWords(lo, hi, func(wi int, w uint64) bool {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return false
			}
			w &= w - 1
		}
		return true
	})
}

// Iter walks the set bits of a window of an Atomic bitset without
// callbacks. Unlike RangeIn, which takes a closure (and so makes the
// caller's captured locals escape to the heap), an Iter is a plain value
// that lives on the caller's stack — the engine's steady-state loops use it
// to stay allocation-free. Each word is an independent atomic snapshot,
// like Range/RangeIn.
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

// Snapshot copies the current contents into a non-atomic bitset.
func (b *Atomic) Snapshot() *Bits {
	s := New(b.n)
	for i := range b.words {
		s.words[i] = b.words[i].Load()
	}
	return s
}

// CopyFromBits overwrites b with the contents of a plain bitset.
func (b *Atomic) CopyFromBits(src *Bits) {
	if b.n != src.n {
		panic("bitset: size mismatch in CopyFromBits")
	}
	for i := range b.words {
		b.words[i].Store(src.words[i])
	}
}
