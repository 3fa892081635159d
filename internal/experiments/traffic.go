package experiments

import (
	"fmt"

	"github.com/kaml-ssd/kaml/internal/traffic"
	"github.com/kaml-ssd/kaml/scenarios"
)

// TrafficScenarios replays the checked-in production-traffic scenarios
// (scenarios/*.json) and tabulates one row per phase plus an end-state
// row per scenario. Unlike the figure experiments, these are acceptance
// runs: the table's last column is the scenario's own assertion verdict,
// and a FAIL here means an SLO or invariant in the declarative assertion
// block did not hold. Scale is ignored — scenario length is part of the
// scenario file (and of its golden report), so it must not be rescaled.
// Each phase's completed ops count toward OpsCompleted, like a figure's
// measured ops.
func TrafficScenarios(Scale) *Table {
	t := &Table{
		ID:    "traffic",
		Title: "production traffic scenarios: per-phase load, tail latency, and assertion verdicts",
		Header: []string{"scenario", "phase", "ops", "errors", "p95 µs", "p99 µs",
			"txn commit/abort", "verdict"},
	}
	for _, name := range scenarios.Names() {
		sc, err := scenarios.Load(name)
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "-", "-", "-", "-", "-", "-", "LOAD ERROR: " + err.Error()})
			continue
		}
		rep, err := traffic.Run(sc)
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "-", "-", "-", "-", "-", "-", "RUN ERROR: " + err.Error()})
			continue
		}
		for _, ph := range rep.Phases {
			opsDone.Add(ph.OpsCompleted)
			t.Rows = append(t.Rows, []string{
				name, ph.Name,
				fmt.Sprintf("%d", ph.OpsIssued),
				fmt.Sprintf("%d", ph.Errors),
				fmt.Sprintf("%d", ph.LatencyUS.P95),
				fmt.Sprintf("%d", ph.LatencyUS.P99),
				fmt.Sprintf("%d/%d", ph.TxnsCommitted, ph.TxnsAborted),
				"",
			})
		}
		verdict := "PASS"
		if !rep.Passed {
			a, _ := rep.FirstFailure()
			verdict = fmt.Sprintf("FAIL %s (%s)", a.Name, a.Detail)
		}
		t.Rows = append(t.Rows, []string{
			name, "(final)",
			fmt.Sprintf("%d", rep.Final.AckedWrites),
			fmt.Sprintf("cuts=%d", rep.Final.PowerCuts),
			"-", "-",
			fmt.Sprintf("sampled=%d", rep.Final.SampledEvents),
			verdict,
		})
	}
	t.Notes = append(t.Notes,
		"each scenario runs on its own virtual clock with the seed from its file; rows are byte-deterministic",
		"full reports (and goldens) live under scenarios/golden/; run one with kamlbench -scenario <name>")
	return t
}
