//go:build race

package store_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
