//go:build race

package apps

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
