//go:build !race

package cmdq

const raceEnabled = false
