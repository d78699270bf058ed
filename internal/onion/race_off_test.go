//go:build !race

package onion_test

const raceEnabled = false
