//go:build race

package kamlssd

// raceEnabled reports a -race build. The race detector makes the engine's
// pool of park tokens drop entries at random, so the exact allocation
// budgets (alloc_test.go) are not checked under it.
const raceEnabled = true
