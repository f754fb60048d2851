package ckpt

import (
	"strings"
	"testing"
)

// mergeShard builds the shard of rank r of a 2-worker run over 4
// vertices with bounds [0,2,4]: its owned range's 2 values, rank-stamped
// so the test can verify which shard each merged value came from.
func mergeShard(r uint32) *State {
	s := &State{
		Program: "SSSP",
		Kind:    MinMax,
		Iter:    5,
		Domain:  "f64",
		Width:   8,
		Rank:    r,
		Bounds:  []uint32{0, 2, 4},
		Values:  make([]uint64, 2),
	}
	for i := range s.Values {
		s.Values[i] = uint64(r)*100 + uint64(2*r) + uint64(i)
	}
	return s
}

// boundsShards builds one shard per rank of a run written under the
// given bounds, each holding its owned range's values (none where the
// bounds decrease).
func boundsShards(bounds ...uint32) []*State {
	shards := make([]*State, len(bounds)-1)
	for r := range shards {
		s := mergeShard(uint32(r))
		s.Bounds = bounds
		s.Values = make([]uint64, max(0, int(bounds[r+1])-int(bounds[r])))
		shards[r] = s
	}
	return shards
}

func TestMergeTakesOwnerValuesAndUnionsSets(t *testing.T) {
	a, b := mergeShard(0), mergeShard(1)
	// Each shard lists its owned range of every set; the owners' lists
	// together are the global set.
	a.Sets = map[string][]uint32{"frontier": {0}, "sparsedirty": {1}}
	b.Sets = map[string][]uint32{"frontier": {2, 3}, "sparsedirty": {2}}
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
		t.Errorf("sparsedirty = %v, want [1 2]", c)
	}
	if got.Rank != 0 || got.Bounds != nil {
		t.Errorf("merged state should carry no ranges, got Rank=%d Bounds=%v", got.Rank, got.Bounds)
	}
	if got.Iter != 5 || got.Program != "SSSP" {
		t.Errorf("identity mangled: %+v", got)
	}
}

func TestMergeStableArrays(t *testing.T) {
	a, b := mergeShard(0), mergeShard(1)
	a.Kind, b.Kind = Arith, Arith
	a.StableCnt = []uint32{10, 11}
	b.StableCnt = []uint32{22, 23}
	a.StableVal = []uint64{1, 2}
	b.StableVal = []uint64{3, 4}
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
		{"bounds end short of the values", func() []*State {
			shards := boundsShards(0, 4, 8)
			for _, s := range shards {
				s.Bounds = []uint32{0, 4, 6}
			}
			return shards
		}, "rank 1 holds 4 values, its owned range [4,6) has 2"},
		{"values not the owned range", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			b.Values = append(b.Values, 7)
			return []*State{a, b}
		}, "rank 1 holds 3 values"},
		{"full-length values", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			a.Values = make([]uint64, 4) // a format-3 shard's whole array
			return []*State{a, b}
		}, "rank 0 holds 4 values"},
		{"rank outside the bounds", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			b.Rank = 2
			return []*State{a, b}
		}, "rank 2 outside bounds for 2 workers"},
		{"set id outside the owned range", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			a.Sets = map[string][]uint32{"frontier": {0, 3}}
			return []*State{a, b}
		}, "id 3 outside its owned range [0,2)"},
		{"stable arrays of another length", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			a.StableCnt, a.StableVal = []uint32{1}, []uint64{1}
			return []*State{a, b}
		}, "stable arrays of 1/1 entries for 2 values"},
		{"stable arrays on one rank only", func() []*State {
			a, b := mergeShard(0), mergeShard(1)
			b.StableCnt, b.StableVal = []uint32{1, 2}, []uint64{1, 2}
			return []*State{a, b}
		}, "truncated stable arrays"},
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
