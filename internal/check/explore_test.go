package check

import (
	"bytes"
	"testing"
)

// TestExplorerCleanSeeds drives several generated scenarios against the
// real firmware and expects no violations. This is the harness's main
// regression test: any consistency bug in the device shows up here as a
// seed to paste into `go run ./cmd/kamlcheck -seed N`.
func TestExplorerCleanSeeds(t *testing.T) {
	if f := Explore(0, 8, 150, false, nil); f != nil {
		t.Fatalf("seed %d failed:\n%s\n%s",
			f.Scenario.Seed, f.Scenario, FormatViolations(f.Result.Violations))
	}
}

// TestRepeatRunDeterminism asserts the whole stack — serialized scheduler,
// firmware, recorder — is deterministic: two runs of one scenario yield
// byte-identical history logs.
func TestRepeatRunDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		sc := GenScenario(seed, 200, false)
		a, b := Run(sc), Run(sc)
		if !bytes.Equal(a.History, b.History) {
			t.Fatalf("seed %d: histories differ (%d vs %d bytes)",
				seed, len(a.History), len(b.History))
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: empty history", seed)
		}
	}
}

// TestInjectedBugCaughtAndShrunk arms the runner's split-batch fault
// (splitBatch: one recorded PutBatch issued as two device Puts), proves the
// explorer finds it within a bounded seed budget (seed 0 catches it), and
// that the shrinker reduces the failing scenario to a small reproducer that
// still fails.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	var fail *Failure
	for seed := int64(0); seed < 30; seed++ {
		sc := GenScenario(seed, 250, true)
		if res := Run(sc); res.Failed() {
			fail = &Failure{Scenario: sc, Result: res}
			break
		}
	}
	if fail == nil {
		t.Fatal("injected atomicity bug not caught in 30 seeds")
	}
	before := fail.Scenario.opCount()
	small, res := Shrink(fail.Scenario, nil)
	if !res.Failed() {
		t.Fatal("shrunk scenario no longer fails")
	}
	if small.opCount() > before {
		t.Fatalf("shrink grew the scenario: %d -> %d ops", before, small.opCount())
	}
	t.Logf("seed %d: %d ops -> %d ops minimal reproducer:\n%s\n%s",
		fail.Scenario.Seed, before, small.opCount(), small,
		FormatViolations(res.Violations))
}

// TestCountCutsLandMidRun guards the generator's program-count cuts against
// going vacuous: the firmware programs a page only when it is full, so a cut
// range out of step with the pages a workload fills would fire in the final
// drain, or never, and the sweep would quietly stop testing cuts mid-write.
func TestCountCutsLandMidRun(t *testing.T) {
	plans, fired := 0, 0
	for seed := int64(0); seed < 100; seed++ {
		sc := GenScenario(seed, 150, false)
		if sc.CutAfterPrograms == 0 {
			continue
		}
		plans++
		res := Run(sc)
		if res.Failed() {
			t.Fatalf("seed %d failed:\n%s\n%s", seed, sc, FormatViolations(res.Violations))
		}
		if res.PlanCutMidRun {
			fired++
		}
	}
	t.Logf("%d of %d count-based cuts struck with workers running", fired, plans)
	if plans < 5 || 4*fired < 3*plans {
		t.Fatalf("%d of %d count-based cuts struck mid-run, want at least 5 plans and 3 in 4 firing", fired, plans)
	}
}
