//go:build race

package rms_test

// raceEnabled reports whether the race detector is on; it makes sync.Pool
// drop entries at random, so pooled paths allocate unpredictably.
const raceEnabled = true
