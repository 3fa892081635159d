//go:build !race

package kvproto

const raceEnabled = false
