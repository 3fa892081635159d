//go:build race

package kvproto

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random, so the round trip's exact allocation budget
// (alloc_test.go) is not checked under it.
const raceEnabled = true
