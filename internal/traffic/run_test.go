package traffic_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/kaml-ssd/kaml/internal/traffic"
	"github.com/kaml-ssd/kaml/scenarios"
)

var update = flag.Bool("update", false, "regenerate golden report files")

// runNamed executes one embedded scenario end to end.
func runNamed(t *testing.T, name string) *traffic.Report {
	t.Helper()
	sc, err := scenarios.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traffic.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func dumpAssertions(t *testing.T, rep *traffic.Report) {
	t.Helper()
	for _, a := range rep.Assertions {
		mark := "ok  "
		if !a.Passed {
			mark = "FAIL"
		}
		t.Logf("  %s %-34s %s", mark, a.Name, a.Detail)
	}
}

// TestScenarioAcceptance runs every checked-in scenario end to end in
// virtual time, requires its declarative assertion block to pass, and
// diffs the produced report against the golden expected report byte for
// byte. Run with -update to regenerate goldens after an intentional
// behavior change.
func TestScenarioAcceptance(t *testing.T) {
	for _, name := range scenarios.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := scenarios.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			// Structural floor from the acceptance suite's charter:
			// every checked-in scenario composes at least 3 phases and
			// at least one scripted fault/chaos ingredient.
			if len(sc.Phases) < 3 {
				t.Fatalf("scenario has %d phases, want >= 3", len(sc.Phases))
			}
			ingredients := 0
			for _, ph := range sc.Phases {
				ingredients += len(ph.Events)
				if ph.Faults != nil {
					ingredients++
				}
			}
			if ingredients == 0 {
				t.Fatal("scenario scripts no fault/chaos events")
			}

			rep, err := traffic.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed {
				dumpAssertions(t, rep)
				a, _ := rep.FirstFailure()
				t.Fatalf("scenario failed: %s (%s)", a.Name, a.Detail)
			}
			if len(rep.Assertions) == 0 {
				t.Fatal("scenario evaluated no assertions")
			}

			got := rep.Canonical()
			if *update {
				path := filepath.Join("..", "..", "scenarios", "golden", name+".report.json")
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := scenarios.Golden(name)
			if want == nil {
				t.Fatalf("no golden report for %q; run with -update", name)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report drifted from golden (run with -update after intended changes)\n--- got ---\n%s", got)
			}
		})
	}
}

// TestRunDeterminism runs the same scenario + seed twice and requires
// byte-identical reports — the contract the golden files rest on. The
// standard suite runs this under -race.
func TestRunDeterminism(t *testing.T) {
	a := runNamed(t, "diurnal").Canonical()
	b := runNamed(t, "diurnal").Canonical()
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario+seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestCrashDuringRebalance is the acceptance guard for the cluster's
// PREPARE/COPY/CUTOVER migration path: a power cut lands on the
// migration source mid-copy, and the run must end with a recovered
// topology, a linearizable sampled history, and zero lost acked writes.
func TestCrashDuringRebalance(t *testing.T) {
	rep := runNamed(t, "crash-rebalance")
	dumpAssertions(t, rep)
	if rep.Final.PowerCuts < 1 {
		t.Fatal("scenario delivered no power cut")
	}
	if rep.Final.Failovers < 1 {
		t.Fatal("power cut caused no failover — did it land on a live primary?")
	}
	if rep.Final.ShardsLive != rep.Final.ShardsTotal {
		t.Fatalf("%d/%d shards live after recovery", rep.Final.ShardsLive, rep.Final.ShardsTotal)
	}
	if rep.Final.LinearizabilityViolations != 0 {
		t.Fatalf("%d linearizability violations: %v", rep.Final.LinearizabilityViolations, rep.Final.ViolationDetails)
	}
	if rep.Final.LostAckedWrites != 0 {
		t.Fatalf("%d lost acked writes: %v", rep.Final.LostAckedWrites, rep.Final.ViolationDetails)
	}
	if !rep.Passed {
		a, _ := rep.FirstFailure()
		t.Fatalf("scenario failed: %s (%s)", a.Name, a.Detail)
	}
}

// TestBrokenSLOFixture runs the deliberately unachievable fixture and
// requires the failure to be named — the path kamlbench turns into a
// non-zero exit.
func TestBrokenSLOFixture(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "broken-slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := traffic.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traffic.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("broken-SLO fixture passed; it must fail")
	}
	a, ok := rep.FirstFailure()
	if !ok {
		t.Fatal("no failing assertion surfaced")
	}
	if a.Name != "phase[burst].p99_us" {
		t.Fatalf("failing assertion %q, want phase[burst].p99_us", a.Name)
	}
	if a.Detail == "" {
		t.Fatal("failing assertion has no detail")
	}
}

// TestRecoveryBudget holds a scenario's recovery to a budget it cannot meet:
// the report must state the time spent in recovery and the run must fail on
// final.max_recovery_ms, by name, and on nothing else.
func TestRecoveryBudget(t *testing.T) {
	sc, err := scenarios.Load("si-mix")
	if err != nil {
		t.Fatal(err)
	}
	sc.Assert.Final.MaxRecoveryMS = 0.001
	rep, err := traffic.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.RecoveryMS <= 0 {
		t.Fatalf("report states %v ms in recovery after %d recoveries", rep.Final.RecoveryMS, rep.Final.Recoveries)
	}
	for _, a := range rep.Assertions {
		if a.Passed == (a.Name == "final.max_recovery_ms") {
			t.Errorf("assertion %s passed=%v (%s): want the recovery budget, and only it, to fail", a.Name, a.Passed, a.Detail)
		}
	}
}

// TestSampledHistoryNonTrivial makes sure the acceptance suite is not
// vacuous: a run records sampled events for the checkers, including
// writes and the final read-back.
func TestSampledHistoryNonTrivial(t *testing.T) {
	rep := runNamed(t, "si-mix")
	if rep.Final.SampledEvents < 50 {
		t.Fatalf("only %d sampled events", rep.Final.SampledEvents)
	}
	if rep.Final.AckedWrites == 0 {
		t.Fatal("no acked writes recorded")
	}
	if rep.Final.SIViolations != 0 || rep.Final.LinearizabilityViolations != 0 {
		t.Fatalf("checker violations: lin=%d si=%d", rep.Final.LinearizabilityViolations, rep.Final.SIViolations)
	}
	if rep.Final.Recoveries < 1 {
		t.Fatal("power-cut recovery did not happen")
	}
}
