package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// The speedometer measures how fast the host is running right now, with a
// fixed kernel that is this directory's own code and touches nothing of the
// repository: a floating-point loop and a random gather over 8 MiB, in equal
// parts, the two things a graph kernel does, run on as many goroutines as
// the workload has threads.
//
// It exists because the calibration host, a 2-vCPU VM on a shared machine,
// changes speed by a factor of 1.3 to 1.6 for minutes at a time (README,
// "Steadiness"): whole runs land in a slow or a fast regime, both halves of
// the kernel slow together with the engine, and no statistic over one run's
// repetitions can undo that. Every timed repetition is therefore bracketed
// by two speedometer samples, and its seconds are divided by the speed
// factor, sample ÷ nominal. On a host at nominal speed the factor is 1 and
// the reported seconds are the measured ones; the full report carries the
// raw medians and the run's factor beside the normalised values.
type speedometer struct {
	threads int
	idx     []uint32
	vals    []float64
}

const (
	speedSlices  = 3        // a goroutine's sample is its fastest slice: a burst only ever slows one
	speedALU     = 12 << 20 // loop iterations per slice
	speedGathers = 1 << 20  // random reads per slice

	// speedExponent corrects the kernel's over-reading. Over a calibration
	// of twenty runs per workload, across regimes in which the kernel took
	// 0.9 to 1.75 times nominal, the engine's raw seconds grew as the
	// kernel's time to the power 0.7-0.8 on every workload (dividing by the
	// plain ratio left the slow-regime runs 12% too fast; by its power 0.75,
	// within 5%). The tight dependent loop suffers more from a busy sibling
	// hyperthread than the engine's mix of loads and branches does.
	speedExponent = 0.75

	// nominalSlice is one slice on the calibration host (Xeon @ 2.10 GHz,
	// 2 vCPUs) at its best: the fastest slices of a two-minute recording
	// took 12.5 ms, the median one 16.7 ms, alone or two at a time. It only
	// fixes the scale of the reported seconds.
	nominalSlice = 13 * time.Millisecond
)

func newSpeedometer(threads int) *speedometer {
	s := &speedometer{threads: threads, idx: make([]uint32, speedGathers), vals: make([]float64, 1<<20)}
	rng := rand.New(rand.NewSource(42))
	for i := range s.idx {
		s.idx[i] = uint32(rng.Intn(len(s.vals)))
	}
	for i := range s.vals {
		s.vals[i] = float64(i)
	}
	return s
}

// sample returns the current speed factor: how much longer than nominal the
// engine takes right now, estimated as (mean slice over the goroutines ÷
// nominal) ^ speedExponent. 1 at nominal speed.
func (s *speedometer) sample() float64 {
	best := make([]time.Duration, s.threads)
	var wg sync.WaitGroup
	for g := range best {
		wg.Add(1)
		go func() {
			defer wg.Done()
			best[g] = s.fastestSlice()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return math.Pow(float64(sum)/float64(s.threads)/float64(nominalSlice), speedExponent)
}

// sink keeps the kernel's result live so the compiler keeps the kernel.
var sink float64

func (s *speedometer) fastestSlice() time.Duration {
	best := time.Duration(1 << 62)
	x := 0.0
	for i := 0; i < speedSlices; i++ {
		t := time.Now()
		for k := 0; k < speedALU; k++ {
			x += float64(k) * 1e-9
		}
		for _, j := range s.idx {
			x += s.vals[j]
		}
		best = min(best, time.Since(t))
	}
	if x < 0 { // never: x is a sum of non-negative terms
		sink = x
	}
	return best
}
