//go:build race

package experiments

// raceEnabled reports a -race build, under which the whole suite takes
// minutes: TestSuiteMatchesGolden does not run there.
const raceEnabled = true
