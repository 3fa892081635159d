// Command kamlcheck is the deterministic model checker for the KAML device:
// it explores seeded schedules (random workloads, concurrency shapes, fault
// plans, power cuts) against the real firmware on a serialized virtual
// clock, checks every recorded history for linearizability, batch
// atomicity, snapshot consistency, and transaction serializability, and
// greedily shrinks any failing scenario to a minimal reproducer.
//
// Explore a seed range:
//
//	go run ./cmd/kamlcheck -seeds 50 -ops 2000
//
// Replay one seed exactly (same seed => byte-identical history):
//
//	go run ./cmd/kamlcheck -seed 17 -ops 2000
//
// Self-test — prove the checker catches an injected atomicity bug:
//
//	go run ./cmd/kamlcheck -bug -seeds 30 -ops 250
//
// Snapshot-isolation mode — hot-key RMW transaction workloads under
// Cache.BeginSI, checked against the SI axioms (lost update, fractured
// read, dirty read, unrepeatable read; write-skew is legal):
//
//	go run ./cmd/kamlcheck -si -seeds 25 -ops 400
//
// SI self-test — disable first-committer-wins validation and prove the
// checker catches the resulting lost update:
//
//	go run ./cmd/kamlcheck -si -bug -seeds 40 -ops 400
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"github.com/kaml-ssd/kaml/internal/check"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 20, "number of seeded scenarios to explore")
		base    = flag.Int64("base", 0, "first seed of the range")
		ops     = flag.Int("ops", 2000, "approximate operations per scenario")
		seed    = flag.Int64("seed", -1, "replay exactly one seed (disables exploration)")
		bug     = flag.Bool("bug", false, "arm a test-only defect: split-batch-commit, or with -si, validation-off lost updates (checker self-test)")
		si      = flag.Bool("si", false, "snapshot-isolation mode: SI transaction workloads checked against the SI axioms")
		shrink  = flag.Bool("shrink", true, "shrink a failing scenario to a minimal reproducer")
		verbose = flag.Bool("v", false, "per-seed progress")
		out     = flag.String("out", "", "on failure, write the failing seed and report to this file (CI artifact)")
	)
	flag.Parse()

	if *seed >= 0 {
		os.Exit(replay(*seed, *ops, *bug, *si, *out, *shrink))
	}

	explore := check.Explore
	kind, prefix := "scenarios", ""
	if *si {
		explore = check.ExploreSI
		kind, prefix = "SI scenarios", "si "
	}
	var hits, misses int64
	fail := explore(*base, *seeds, *ops, *bug, func(sc *check.Scenario, res *check.RunResult) {
		hits += res.CacheHits
		misses += res.CacheMisses
		if *verbose {
			fmt.Printf("%sseed %d: %d events, %d violations\n", prefix, sc.Seed, len(res.Events), len(res.Violations))
		}
	})
	if fail == nil {
		fmt.Printf("ok: %d %s (seeds %d..%d, ~%d ops each), no violations\n",
			*seeds, kind, *base, *base+int64(*seeds)-1, *ops)
		if *si {
			// Cache.Stats counts SI lookups: whether snapshot reads reached
			// the cached-version path at all.
			fmt.Printf("SI reads served by the record cache: %d, by the device: %d\n", hits, misses)
		}
		return
	}
	report(fail, *ops, *bug, *si, *out, *shrink)
	os.Exit(1)
}

func replay(seed int64, ops int, bug, si bool, out string, shrink bool) int {
	gen := check.GenScenario
	if si {
		gen = check.GenSIScenario
	}
	sc := gen(seed, ops, bug)
	res := check.Run(sc)
	fmt.Printf("seed %d: %d events, history sha256=%x\n",
		seed, len(res.Events), sha256.Sum256(res.History))
	if !res.Failed() {
		fmt.Println("ok: no violations")
		return 0
	}
	report(&check.Failure{Scenario: sc, Result: res}, ops, bug, si, out, shrink)
	return 1
}

func report(fail *check.Failure, ops int, bug, si bool, out string, shrink bool) {
	sc, res := fail.Scenario, fail.Result
	fmt.Printf("\nVIOLATION at seed %d:\n%s", sc.Seed, check.FormatViolations(res.Violations))
	if shrink {
		fmt.Println("shrinking...")
		small, sres := check.Shrink(sc, func(s string) { fmt.Println("  " + s) })
		sc, res = small, sres
		fmt.Printf("\nminimal reproducer:\n%s%s", sc, check.FormatViolations(res.Violations))
	}
	repro := fmt.Sprintf("go run ./cmd/kamlcheck -seed %d -ops %d", sc.Seed, ops)
	if si {
		repro += " -si"
	}
	if bug {
		repro += " -bug"
	}
	fmt.Printf("\nreproduce with: %s\n", repro)
	if out != "" {
		artifact := fmt.Sprintf("seed=%d ops=%d bug=%v si=%v\n\n%s\n%s\nreproduce with: %s\n",
			sc.Seed, ops, bug, si, sc, check.FormatViolations(res.Violations), repro)
		if err := os.WriteFile(out, []byte(artifact), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
		} else {
			fmt.Printf("failing-seed artifact written to %s\n", out)
		}
	}
}
