package ckpt

import (
	"strings"
	"testing"
)

// mergeShard builds a shard for rank r of a 2-worker epoch over 4 vertices
// with bounds [0,2,4]. Values are rank-stamped so the test can verify which
// shard each vertex's merged value came from.
func mergeShard(r uint32) *State {
	s := &State{
		Program: "SSSP",
		Kind:    MinMax,
		Iter:    5,
		Domain:  "f64",
		Width:   8,
		Rank:    r,
		Bounds:  []uint32{0, 2, 4},
		Values:  make([]uint64, 4),
	}
	for i := range s.Values {
		s.Values[i] = uint64(r)*100 + uint64(i)
	}
	return s
}

// boundsShards builds one shard per rank of an 8-vertex epoch written under
// the given bounds.
func boundsShards(bounds ...uint32) []*State {
	shards := make([]*State, len(bounds)-1)
	for r := range shards {
		s := mergeShard(uint32(r))
		s.Bounds = bounds
		s.Values = make([]uint64, 8)
		shards[r] = s
	}
	return shards
}

func TestMergeTakesOwnerValuesAndUnionsSets(t *testing.T) {
	a, b := mergeShard(0), mergeShard(1)
	// Frontier bits are global knowledge (each owner holds its own changed
	// bits); sparsedirty is owned-range state, so rank 0's stale bit about
	// vertex 3 (owned by rank 1) must be discarded.
	a.Sets = map[string][]uint32{"frontier": {0, 3}, "sparsedirty": {1, 3}}
	b.Sets = map[string][]uint32{"frontier": {2}, "sparsedirty": {2}}
	got, err := Merge([]*State{b, a}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 102, 103} // rank 0 owns [0,2), rank 1 owns [2,4)
	for i, w := range want {
		if got.Values[i] != w {
			t.Errorf("Values[%d] = %d, want %d", i, got.Values[i], w)
		}
	}
	if f := got.Sets["frontier"]; len(f) != 3 || f[0] != 0 || f[1] != 2 || f[2] != 3 {
		t.Errorf("frontier = %v, want [0 2 3]", f)
	}
	if c := got.Sets["sparsedirty"]; len(c) != 2 || c[0] != 1 || c[1] != 2 {
		t.Errorf("sparsedirty = %v, want [1 2] (rank 0's bit about vertex 3 dropped)", c)
	}
	if got.Rank != 0 || got.Bounds != nil {
		t.Errorf("merged state should be epoch-agnostic, got Rank=%d Bounds=%v", got.Rank, got.Bounds)
	}
	if got.Iter != 5 || got.Program != "SSSP" {
		t.Errorf("identity mangled: %+v", got)
	}
}

func TestMergeStableArrays(t *testing.T) {
	a, b := mergeShard(0), mergeShard(1)
	a.Kind, b.Kind = Arith, Arith
	a.StableCnt = []uint32{10, 11, 99, 99}
	b.StableCnt = []uint32{99, 99, 22, 23}
	a.StableVal = []uint64{1, 2, 0, 0}
	b.StableVal = []uint64{0, 0, 3, 4}
	got, err := Merge([]*State{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got.StableCnt[1] != 11 || got.StableCnt[2] != 22 {
		t.Errorf("StableCnt = %v", got.StableCnt)
	}
	if got.StableVal[0] != 1 || got.StableVal[3] != 4 {
		t.Errorf("StableVal = %v", got.StableVal)
	}
}

func TestMergeRejectsBadShardSets(t *testing.T) {
	cases := []struct {
		name   string
		shards func() []*State
		msg    string
	}{
		{"empty", func() []*State { return nil }, "no shards"},
		{"missing rank", func() []*State { return []*State{mergeShard(0)} }, "1 shards"},
		{"duplicate rank", func() []*State { return []*State{mergeShard(0), mergeShard(0)} }, "duplicate"},
		{"iter mismatch", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			b.Iter = 6
			return []*State{a, b}
		}, "disagrees"},
		{"bounds mismatch", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			b.Bounds = []uint32{0, 3, 4}
			return []*State{a, b}
		}, "different bounds"},
		{"v2 shard", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			a.Bounds = nil
			return []*State{a, b}
		}, "bounds-tagged"},
		{"bounds decrease", func() []*State { return boundsShards(0, 6, 3, 8) }, "bound 2 decreases"},
		{"bounds overrun the values", func() []*State { return boundsShards(0, 9, 9, 8) }, "bound 3 decreases"},
		{"bounds start past 0", func() []*State { return boundsShards(1, 4, 8) }, "start at 1"},
		{"bounds end short of the values", func() []*State { return boundsShards(0, 4, 6) }, "end at 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Merge(tc.shards())
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want substring %q", err, tc.msg)
			}
		})
	}
}
