//go:build race

package sim

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random, so the exact allocation counts (alloc_test.go) are not
// checked under it.
const raceEnabled = true
