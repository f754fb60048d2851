package balance

import (
	"reflect"
	"testing"
)

func TestShrinkFoldsDeadIntoPredecessor(t *testing.T) {
	cases := []struct {
		name   string
		bounds []uint32
		dead   []int
		want   []uint32
	}{
		{"middle dead folds left", []uint32{0, 10, 20, 30}, []int{1}, []uint32{0, 20, 30}},
		{"last dead folds left", []uint32{0, 10, 20, 30}, []int{2}, []uint32{0, 10, 30}},
		{"leading dead folds into first survivor", []uint32{0, 10, 20, 30}, []int{0}, []uint32{0, 20, 30}},
		{"consecutive dead", []uint32{0, 10, 20, 30, 40}, []int{1, 2}, []uint32{0, 30, 40}},
		{"interleaved dead", []uint32{0, 10, 20, 30, 40}, []int{1, 3}, []uint32{0, 20, 40}},
		{"single survivor absorbs everything", []uint32{0, 10, 20, 30}, []int{0, 2}, []uint32{0, 30}},
		{"down to one worker", []uint32{0, 10, 20}, []int{1}, []uint32{0, 20}},
		{"duplicate dead ids tolerated", []uint32{0, 10, 20, 30}, []int{1, 1}, []uint32{0, 20, 30}},
		{"empty survivor range preserved", []uint32{0, 10, 10, 30}, []int{2}, []uint32{0, 10, 30}},
		{"dead empty range is a no-op fold", []uint32{0, 10, 10, 30}, []int{1}, []uint32{0, 10, 30}},
		{"nobody dead", []uint32{0, 10, 20}, nil, []uint32{0, 10, 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Shrink(mustRanges(t, tc.bounds), tc.dead)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Bounds(), tc.want) {
				t.Fatalf("Shrink(%v, %v) = %v, want %v", tc.bounds, tc.dead, got.Bounds(), tc.want)
			}
		})
	}
}

func TestShrinkErrors(t *testing.T) {
	r := mustRanges(t, []uint32{0, 10, 20})
	if _, err := Shrink(r, []int{0, 1}); err == nil {
		t.Error("all workers dead: want error")
	}
	if _, err := Shrink(r, []int{2}); err == nil {
		t.Error("dead id out of range: want error")
	}
	if _, err := Shrink(r, []int{-1}); err == nil {
		t.Error("negative dead id: want error")
	}
}

// TestShrinkCoversEveryVertex checks the invariant recovery depends on:
// after any survivable shrink, the surviving ranges still tile [0, n)
// exactly — every dead rank's vertex has exactly one new owner.
func TestShrinkCoversEveryVertex(t *testing.T) {
	bounds := []uint32{0, 3, 3, 9, 14, 20}
	for mask := 1; mask < 1<<5-1; mask++ {
		var dead []int
		for i := 0; i < 5; i++ {
			if mask&(1<<i) != 0 {
				dead = append(dead, i)
			}
		}
		got, err := Shrink(mustRanges(t, bounds), dead)
		if err != nil {
			t.Fatalf("dead %v: %v", dead, err)
		}
		nb := got.Bounds()
		if nb[0] != 0 || nb[len(nb)-1] != 20 {
			t.Fatalf("dead %v: bounds %v do not span [0,20]", dead, nb)
		}
		if got.Nodes() != 5-len(dead) {
			t.Fatalf("dead %v: %d workers, want %d", dead, got.Nodes(), 5-len(dead))
		}
	}
}
