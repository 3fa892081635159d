package traffic

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/kaml-ssd/kaml/internal/stats"
)

// Report is the artifact a scenario run produces. Every field derives
// from virtual-clock measurements and seeded draws only, so the same
// scenario and seed produce a byte-identical Canonical() rendering — the
// determinism test and the golden expected-report files depend on it.
type Report struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Target     string `json:"target"`
	DurationMS int64  `json:"duration_ms"` // virtual time, end of quiesce

	Phases []PhaseReport `json:"phases"`
	Final  FinalReport   `json:"final"`

	// Assertions lists every declarative assertion evaluated, in order,
	// with its outcome. Passed is the conjunction.
	Assertions []AssertionResult `json:"assertions"`
	Passed     bool              `json:"passed"`
}

// PhaseReport is one phase's measured outcome. Counters cover operations
// issued during the phase (an op issued near the end that completes in
// the next phase still reports here); latency is intended-arrival to
// completion in virtual time, so client-side stalls and partition
// retries show up as tail latency rather than coordinated omission.
type PhaseReport struct {
	Name    string `json:"name"`
	StartMS int64  `json:"start_ms"`
	EndMS   int64  `json:"end_ms"`

	OpsIssued    int64 `json:"ops_issued"`
	OpsCompleted int64 `json:"ops_completed"`
	Errors       int64 `json:"errors"`     // hard failures (incl. power loss)
	PowerLoss    int64 `json:"power_loss"` // subset of errors: maybe-applied
	NotFound     int64 `json:"not_found"`  // reads of absent keys (not errors)

	TxnsCommitted int64 `json:"txns_committed"`
	TxnsAborted   int64 `json:"txns_aborted"`

	ClientRetries int64 `json:"client_retries,omitempty"` // partition re-sends

	LatencyUS Latency `json:"latency_us"`

	// Cluster counter deltas over the phase window (cluster target only).
	Cluster *ClusterPhase `json:"cluster,omitempty"`
}

// Latency summarizes a phase's latency distribution in microseconds of
// virtual time.
type Latency struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// ClusterPhase is the delta of cluster counters across one phase window.
type ClusterPhase struct {
	Failovers    int64 `json:"failovers"`
	Migrations   int64 `json:"migrations"`
	HedgesIssued int64 `json:"hedges_issued"`
	HedgesWon    int64 `json:"hedges_won"`
	Retries      int64 `json:"retries"`
}

// FinalReport is the end-state section: what the run-long invariant
// checks saw after traffic quiesced and the sampled keys were read back.
type FinalReport struct {
	AckedWrites   int64 `json:"acked_writes"`
	MaybeWrites   int64 `json:"maybe_writes"` // power-loss / pending writes
	SampledEvents int   `json:"sampled_events"`
	SampledKeys   int   `json:"sampled_keys"`

	PowerCuts        int64 `json:"power_cuts"`
	Recoveries       int64 `json:"recoveries"`
	RecoveryFailures int64 `json:"recovery_failures"`
	// RecoveryMS is the virtual time spent inside kaml.Reopen, summed over
	// the scenario's recoveries (device target; absent when nothing was
	// recovered): the part of each outage the firmware is answerable for.
	RecoveryMS float64 `json:"recovery_ms,omitempty"`

	// Flash faults the firmware absorbed, summed over every device
	// generation (device target only): failed programs rewritten, torn or
	// unreadable pages skipped by recovery scans.
	ProgramRetries int64 `json:"program_retries,omitempty"`
	TornPages      int64 `json:"torn_pages,omitempty"`

	// Cluster end state (cluster target only).
	Failovers   int64 `json:"failovers,omitempty"`
	ShardsLive  int   `json:"shards_live,omitempty"`
	ShardsTotal int   `json:"shards_total,omitempty"`

	// Checker verdicts: -1 = not run, otherwise the violation count.
	LinearizabilityViolations int `json:"linearizability_violations"`
	SIViolations              int `json:"si_violations"`
	LostAckedWrites           int `json:"lost_acked_writes"`
	TelemetryRegressions      int `json:"telemetry_regressions"`

	// ViolationDetails carries up to 5 checker messages for diagnosis.
	ViolationDetails []string `json:"violation_details,omitempty"`
}

// AssertionResult is one evaluated assertion, named so a failing run can
// say exactly which budget broke (kamlbench exits non-zero with the
// first failing name).
type AssertionResult struct {
	Name   string `json:"name"` // e.g. "phase[storm].p99_us", "final.linearizable"
	Passed bool   `json:"passed"`
	Detail string `json:"detail"` // "2712 <= 8000" or "2712 > budget 800"
}

// Canonical renders the report in its normalized byte form (two-space
// indented JSON, trailing newline) — the exact bytes of the golden
// report files and of `kamlbench -scenario -json`.
func (r *Report) Canonical() []byte {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("traffic: marshal report for %q: %v", r.Scenario, err))
	}
	return append(blob, '\n')
}

// FirstFailure returns the first failed assertion, if any.
func (r *Report) FirstFailure() (AssertionResult, bool) {
	for _, a := range r.Assertions {
		if !a.Passed {
			return a, true
		}
	}
	return AssertionResult{}, false
}

// summarizeLatencies reduces a sample set (µs) to the report quantiles,
// ranked by stats.NearestRank: the p-quantile of N samples is the
// ceil(p·N)-th smallest.
func summarizeLatencies(us []int64) Latency {
	if len(us) == 0 {
		return Latency{}
	}
	sorted := append([]int64(nil), us...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) int64 { return sorted[stats.NearestRank(p, len(sorted))] }
	return Latency{
		P50: q(0.50), P90: q(0.90), P95: q(0.95), P99: q(0.99),
		Max: sorted[len(sorted)-1],
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func cos2pi(p float64) float64 { return math.Cos(2 * math.Pi * p) }
