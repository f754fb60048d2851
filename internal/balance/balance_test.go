package balance

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slfe/internal/partition"
)

func mustRanges(t *testing.T, bounds []uint32) *partition.Chunked {
	t.Helper()
	r, err := partition.FromBounds(bounds)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPlanEqualTimesKeepsBoundaries(t *testing.T) {
	r := mustRanges(t, []uint32{0, 100, 200, 300, 400})
	out, err := Plan(r, []float64{1, 1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Bounds(), r.Bounds()) {
		t.Fatalf("boundaries moved to %v", out.Bounds())
	}
}

func TestPlanShiftsTowardSlowWorker(t *testing.T) {
	// Worker 0 is 3x slower: its range must shrink.
	r := mustRanges(t, []uint32{0, 100, 200})
	out, err := Plan(r, []float64{3, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := out.Bounds()
	if b[1] >= 100 {
		t.Fatalf("boundary did not move toward the slow worker: %v", b)
	}
	// Equal-cost split of densities (3/100, 1/100): boundary where
	// cum = 2.0 -> 2.0/3*100 = 66.67 -> 67.
	if b[1] != 67 {
		t.Fatalf("boundary %d, want 67", b[1])
	}
}

func TestPlanDampingHalvesTheMove(t *testing.T) {
	r := mustRanges(t, []uint32{0, 100, 200})
	full, err := Plan(r, []float64{3, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Plan(r, []float64{3, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fullMove := 100 - int(full.Bounds()[1])
	halfMove := 100 - int(half.Bounds()[1])
	if halfMove < fullMove/2-1 || halfMove > fullMove/2+1 {
		t.Fatalf("damped move %d, full move %d", halfMove, fullMove)
	}
}

func TestPlanZeroTotalKeepsBoundaries(t *testing.T) {
	r := mustRanges(t, []uint32{0, 50, 100})
	out, err := Plan(r, []float64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bounds()[1] != 50 {
		t.Fatalf("boundaries moved on zero total: %v", out.Bounds())
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	r := mustRanges(t, []uint32{0, 50, 100})
	if _, err := Plan(r, []float64{1}, 1); err == nil {
		t.Error("wrong times length accepted")
	}
	if _, err := Plan(r, []float64{1, -2}, 1); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := Plan(r, []float64{1, 1}, 0); err == nil {
		t.Error("zero damping accepted")
	}
	if _, err := Plan(r, []float64{1, 1}, 1.5); err == nil {
		t.Error("damping > 1 accepted")
	}
}

// Property: Plan always yields valid monotone boundaries covering [0, n),
// and with damping 1 on uniform per-vertex cost the new spread predicted
// from the density model never exceeds the old spread.
func TestPlanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		n := uint32(100 + rng.Intn(10000))
		bounds := make([]uint32, k+1)
		bounds[k] = n
		cuts := make([]uint32, k-1)
		for i := range cuts {
			cuts[i] = uint32(rng.Intn(int(n)))
		}
		// Insertion sort the cuts.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		copy(bounds[1:], cuts)
		r, err := partition.FromBounds(bounds)
		if err != nil {
			return false
		}
		times := make([]float64, k)
		for i := range times {
			times[i] = rng.Float64() * 10
		}
		out, err := Plan(r, times, 1)
		if err != nil {
			return false
		}
		nb := out.Bounds()
		if nb[0] != 0 || nb[k] != n {
			return false
		}
		for i := 1; i <= k; i++ {
			if nb[i] < nb[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Iterating Plan on a fixed per-vertex cost field converges to a balanced
// split: simulate workers whose time is the integral of a static density.
func TestPlanConvergesOnStaticDensity(t *testing.T) {
	n := uint32(10000)
	density := func(v uint32) float64 {
		if v < 2000 {
			return 10 // hot head (e.g. hub vertices after RR)
		}
		return 1
	}
	r := mustRanges(t, []uint32{0, 2500, 5000, 7500, n})
	measure := func(r *partition.Chunked) []float64 {
		times := make([]float64, r.Nodes())
		for i := range times {
			lo, hi := r.Range(i)
			for v := lo; v < hi; v++ {
				times[i] += density(v)
			}
		}
		return times
	}
	// Figure 10b's imbalance statistic: (slowest - fastest) / slowest.
	var spread float64
	for round := 0; round < 12; round++ {
		times := measure(r)
		spread = (slices.Max(times) - slices.Min(times)) / slices.Max(times)
		next, err := Plan(r, times, 1)
		if err != nil {
			t.Fatal(err)
		}
		r = next
	}
	if spread > 0.05 {
		t.Fatalf("spread %v after 12 rounds; expected < 5%%", spread)
	}
}
