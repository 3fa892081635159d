//go:build race

package cmdq

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random, so the exact allocation count (alloc_test.go) is not
// checked under it.
const raceEnabled = true
