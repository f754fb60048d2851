//go:build perf

package store_test

// Wall-clock guards. Their verdicts depend on the machine and on what else
// it is running, so they are kept out of `go test ./...` behind the perf
// tag; CI runs them with -tags perf.

import (
	"math"
	"runtime"
	"testing"
	"time"

	"slfe/internal/loader"
	"slfe/internal/store"
)

// minTime runs fn n times and returns the fastest wall-clock duration.
func minTime(n int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

// TestStorageOpenSpeed is the wall-clock half of the storage guard:
// mmap-opening the SLFC file must be at least 10x faster than parsing the
// binary edge file into a heap CSR (open is O(header + nBlocks), parse is
// O(m) plus the CSR build).
func TestStorageOpenSpeed(t *testing.T) {
	rawPath, cmpPath, _ := storageFiles(t)
	parseT, err := minTime(5, func() error {
		hg, err := loader.LoadFile(rawPath)
		runtime.KeepAlive(hg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	openT, err := minTime(5, func() error {
		sg, err := store.Open(cmpPath)
		if err != nil {
			return err
		}
		return sg.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("parse %v, mmap open %v (%.1fx)", parseT, openT, parseT.Seconds()/openT.Seconds())
	if openT*10 > parseT {
		t.Errorf("mmap open (%v) is not 10x faster than binary parse (%v)", openT, parseT)
	}
}
