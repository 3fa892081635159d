//go:build race

package kamlssd

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random, so the exact write-path allocation budgets
// (alloc_test.go) are not checked under it.
const raceEnabled = true
