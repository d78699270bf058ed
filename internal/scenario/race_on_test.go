//go:build race

package scenario

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets are meaningless under its shadow-memory overhead.
const raceEnabled = true
