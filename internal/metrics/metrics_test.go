package metrics

import (
	"testing"
	"time"
)

func TestAddAggregates(t *testing.T) {
	r := &Run{}
	r.Add(IterStat{Iter: 0, Mode: Push, Computations: 10, Updates: 2, Time: time.Millisecond})
	r.Add(IterStat{Iter: 1, Mode: Pull, Computations: 30, Updates: 5, Suppressed: 7, Time: 2 * time.Millisecond})
	if r.Computations() != 40 || r.Updates() != 7 || r.Suppressed() != 7 {
		t.Fatalf("aggregates wrong: %d %d %d", r.Computations(), r.Updates(), r.Suppressed())
	}
	if r.PushTime != time.Millisecond || r.PullTime != 2*time.Millisecond {
		t.Fatalf("time split wrong: %v %v", r.PushTime, r.PullTime)
	}
	if r.ComputeTime != 3*time.Millisecond {
		t.Fatalf("ComputeTime = %v", r.ComputeTime)
	}
}

func TestModeString(t *testing.T) {
	if Pull.String() != "pull" || Push.String() != "push" {
		t.Fatal("mode strings wrong")
	}
}

func TestMerge(t *testing.T) {
	a := &Run{}
	a.Add(IterStat{Iter: 0, Mode: Pull, Computations: 5, ActiveVerts: 10, Time: time.Millisecond})
	a.Add(IterStat{Iter: 7, Mode: Push, Computations: 2, ActiveVerts: 3, Time: time.Millisecond})
	b := &Run{}
	b.Add(IterStat{Iter: 0, Mode: Pull, Computations: 7, ActiveVerts: 10, Time: 3 * time.Millisecond})

	m := Merge([]*Run{a, b})
	if len(m.Iters) != 2 {
		t.Fatalf("merged %d iters", len(m.Iters))
	}
	if m.Iters[0].Computations != 12 {
		t.Fatalf("iter0 comps = %d", m.Iters[0].Computations)
	}
	if m.Iters[0].Time != 3*time.Millisecond {
		t.Fatalf("iter0 time = %v (want max)", m.Iters[0].Time)
	}
	if m.Iters[1].Computations != 2 {
		t.Fatalf("iter1 comps = %d", m.Iters[1].Computations)
	}
	// Iter is the workers' superstep number, which a resumed run starts
	// past the index.
	if m.Iters[0].Iter != 0 || m.Iters[1].Iter != 7 {
		t.Fatalf("merged iters numbered %d, %d, want the workers' 0, 7", m.Iters[0].Iter, m.Iters[1].Iter)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("nil imbalance = %v", got)
	}
	if got := Imbalance([]*Run{{ComputeTime: time.Second}}); got != 0 {
		t.Fatalf("single-run imbalance = %v", got)
	}
	runs := []*Run{
		{ComputeTime: 100 * time.Millisecond},
		{ComputeTime: 50 * time.Millisecond},
	}
	if got := Imbalance(runs); got != 0.5 {
		t.Fatalf("imbalance = %v, want 0.5", got)
	}
	zero := []*Run{{}, {}}
	if got := Imbalance(zero); got != 0 {
		t.Fatalf("zero imbalance = %v", got)
	}
}

func TestComputationsUpdatesSuppressedSums(t *testing.T) {
	r := &Run{}
	r.Add(IterStat{Computations: 5, Updates: 2, Suppressed: 1})
	r.Add(IterStat{Computations: 7, Updates: 3, Suppressed: 4})
	if r.Computations() != 12 || r.Updates() != 5 || r.Suppressed() != 5 {
		t.Fatalf("sums: %d %d %d", r.Computations(), r.Updates(), r.Suppressed())
	}
}
