package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive" method),
// so -compare computes spreads exactly as the driver does. Fewer than two
// samples have no spread: all three cut points are the sample itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n // after clamping j, as Python does: it may leave [0, n)
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a bound is judged against.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// percentile is the nearest-rank percentile (p in (0,100]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the tail percentiles the benchmark ever reports.
var tailPercentiles = []float64{50, 80, 90, 95, 99}

// highestPercentile is the reporting rule for tails: the highest percentile
// that still has at least ten samples beyond it. With fewer than twenty
// samples not even the median qualifies and 0 is returned.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// tail reports the wanted percentile, lowered to the highest one the sample
// count supports (see highestPercentile); with too few samples for any, the
// median stands in.
func tail(xs []float64, want float64) float64 {
	p := math.Min(want, highestPercentile(len(xs)))
	if p == 0 {
		p = 50
	}
	return percentile(xs, p)
}

// checksum is FNV-64a over the IEEE-754 bits of every value: two result
// arrays have the same checksum exactly when they are bit-identical (up to
// hash collision), which is the repo's bar for every fast path.
func checksum(values []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
