// Package balance implements dynamic inter-node work rebalancing, the
// future-work item of the paper's §5: redundancy reduction removes uneven
// amounts of work from each node, so the static chunked ingress can drift
// out of balance at runtime ("it is challenging to address the potential
// inter-node load imbalance"; the paper cites Mizan-style migration as the
// intended direction).
//
// The scheme here keeps SLFE's contiguous-range ownership
// (partition.Chunked) — only the range boundaries move. After a measurement
// window every worker contributes its compute time; each replica then
// derives the SAME new boundaries from the shared measurements
// (piecewise-constant cost density, equal-cost re-split), so no coordinator
// and no vertex-state shipping is needed: ownership never changes a value.
// Delta-sync broadcasts every owner's changes to every rank, so each rank
// already holds every value and the whole frontier and a move ships
// nothing. The engine records the current ranges in every checkpoint
// shard so that Merge places each shard's vertices by them; a resumed run
// starts again from the static ranges and rebalances from there.
package balance

import (
	"fmt"

	"slfe/internal/partition"
)

// Plan derives new boundaries from measured per-worker times over the
// current ranges. The cost of worker i's range is modelled as uniformly
// dense (times[i] spread over its vertices); the global piecewise-linear
// cumulative cost is then re-split into equal-cost ranges. Workers with
// empty ranges or zero time contribute zero density. damping in (0,1]
// scales how far each boundary moves toward its equal-cost target (1 =
// jump there; smaller values resist oscillation when the measurement is
// noisy). Returns r itself if the total time is zero.
func Plan(r *partition.Chunked, times []float64, damping float64) (*partition.Chunked, error) {
	k := r.Nodes()
	if len(times) != k {
		return nil, fmt.Errorf("balance: %d times for %d workers", len(times), k)
	}
	if damping <= 0 || damping > 1 {
		return nil, fmt.Errorf("balance: damping %v outside (0,1]", damping)
	}
	var total float64
	for i, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("balance: negative time for worker %d", i)
		}
		total += t
	}
	if total == 0 {
		return r, nil
	}

	// Cumulative cost at the old boundaries.
	cum := make([]float64, k+1)
	for i := 0; i < k; i++ {
		cum[i+1] = cum[i] + times[i]
	}
	target := total / float64(k)

	bounds := r.Bounds()
	newBounds := make([]uint32, k+1)
	newBounds[0] = 0
	newBounds[k] = bounds[k]
	for j := 1; j < k; j++ {
		want := target * float64(j)
		// Find the old range containing cumulative cost `want`.
		i := 0
		for i < k-1 && cum[i+1] < want {
			i++
		}
		lo, hi := bounds[i], bounds[i+1]
		var ideal float64
		if times[i] == 0 || hi == lo {
			ideal = float64(hi)
		} else {
			ideal = float64(lo) + (want-cum[i])/times[i]*float64(hi-lo)
		}
		moved := float64(bounds[j]) + damping*(ideal-float64(bounds[j]))
		b := uint32(moved + 0.5)
		// Keep boundaries monotone and in range.
		if b < newBounds[j-1] {
			b = newBounds[j-1]
		}
		if b > newBounds[k] {
			b = newBounds[k]
		}
		newBounds[j] = b
	}
	return partition.FromBounds(newBounds)
}
