//go:build race

package onion_test

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops items at random, so allocation counts mean
// nothing.
const raceEnabled = true
