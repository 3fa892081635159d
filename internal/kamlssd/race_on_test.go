//go:build race

package kamlssd

// raceEnabled reports a -race build. The race detector's build allocates
// more on some paths and counts shadow allocations, so those allocation
// budgets (alloc_test.go) are not checked under it.
const raceEnabled = true
