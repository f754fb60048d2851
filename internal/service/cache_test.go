package service

import "testing"

func TestCacheHitMissAndVersionPinning(t *testing.T) {
	c := NewCache(4)
	if !c.Enabled() {
		t.Fatal("capacity 4 cache reports disabled")
	}
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, []byte("v1"))
	if v, ok := c.Get("a", 1); !ok || string(v) != "v1" {
		t.Fatalf("Get(a,1) = %v, %v; want v1, true", v, ok)
	}
	// Same key at a newer graph version: the stale entry must not serve,
	// and must be dropped so it cannot serve later either.
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("stale entry served at newer version")
	}
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("version-mismatched entry was not evicted")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 3 misses, 1 invalidation", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1, []byte("A"))
	c.Put("b", 1, []byte("B"))
	if _, ok := c.Get("a", 1); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 1, []byte("C")) // evicts b
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries", st)
	}
}

func TestCacheInvalidateBelow(t *testing.T) {
	c := NewCache(8)
	c.Put("old1", 1, []byte("x"))
	c.Put("old2", 2, []byte("x"))
	c.Put("new", 3, []byte("x"))
	c.InvalidateBelow(3)
	if st := c.Stats(); st.Entries != 1 || st.Invalidations != 2 {
		t.Fatalf("stats after InvalidateBelow(3) = %+v; want 1 entry, 2 invalidations", st)
	}
	if _, ok := c.Get("new", 3); !ok {
		t.Fatal("current-version entry dropped by InvalidateBelow")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c.Enabled() {
		t.Fatal("capacity 0 cache reports enabled")
	}
	c.Put("a", 1, []byte("v")) // must be a no-op, not a panic
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("disabled cache served a value")
	}
	c.InvalidateBelow(5)
}

func TestCachePutReplacesSameKey(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1, []byte("old"))
	c.Put("a", 2, []byte("new"))
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("same-key Put duplicated the entry: %+v", st)
	}
	if v, ok := c.Get("a", 2); !ok || string(v) != "new" {
		t.Fatalf("Get(a,2) = %v, %v; want new, true", v, ok)
	}
}

func TestAdmissionBounds(t *testing.T) {
	a := NewAdmission(2, 1)
	if !a.AdmitMutation() || !a.AdmitMutation() {
		t.Fatal("mutation queue rejected within bound")
	}
	if a.AdmitMutation() {
		t.Fatal("mutation queue admitted past bound")
	}
	a.DoneMutation()
	if !a.AdmitMutation() {
		t.Fatal("mutation slot not released")
	}

	if !a.AdmitRead() {
		t.Fatal("read rejected within bound")
	}
	if a.AdmitRead() {
		t.Fatal("read admitted past bound")
	}
	a.DoneRead()

	st := a.Stats()
	if st.ThrottledMutations != 1 || st.ThrottledReads != 1 {
		t.Fatalf("stats = %+v; want 1 throttled mutation, 1 throttled read", st)
	}
	if st.MutationQueue != 2 || st.ReadInflight != 1 {
		t.Fatalf("stats = %+v; want bounds 2/1", st)
	}
}
