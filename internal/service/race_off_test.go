//go:build !race

package service

// raceEnabled reports whether the race detector instruments this build
// (instrumentation perturbs allocation counts, so the alloc-budget guard
// skips itself under -race).
const raceEnabled = false
