//go:build !race

package kamlssd

const raceEnabled = false
