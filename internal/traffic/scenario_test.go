package traffic

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// validScenario returns a minimal valid scenario document tests mutate.
func validScenario() string {
	return `{
  "name": "t",
  "seed": 1,
  "target": {"kind": "device"},
  "keyspace": {"keys": 64, "value_size": 32, "sample_every": 4},
  "phases": [
    {
      "name": "a",
      "duration_ms": 10,
      "arrival": {"shape": "flat", "start_rate": 100},
      "mix": {"get": 0.5, "put": 0.5},
      "keys": {"dist": "uniform"}
    }
  ],
  "assertions": {"final": {}}
}`
}

func TestParseValid(t *testing.T) {
	sc, err := Parse([]byte(validScenario()))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" || len(sc.Phases) != 1 {
		t.Fatalf("unexpected parse: %+v", sc)
	}
}

// withPowerCut is validScenario with a power cut scheduled and the outage it
// causes bounded.
func withPowerCut(budget string) string {
	s := strings.Replace(validScenario(), `"keys": {"dist": "uniform"}
    }`, `"keys": {"dist": "uniform"},
      "events": [{"at_ms": 5, "kind": "power_cut"}]
    }`, 1)
	return strings.Replace(s, `"final": {}`, `"final": {"max_recovery_ms": `+budget+`}`, 1)
}

func TestParseCanonicalRoundTrips(t *testing.T) {
	for _, doc := range []string{validScenario(), withPowerCut("12.5")} {
		sc, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		c1 := sc.Canonical()
		sc2, err := Parse(c1)
		if err != nil {
			t.Fatalf("reparse of canonical form: %v", err)
		}
		if !bytes.Equal(c1, sc2.Canonical()) {
			t.Fatal("canonical form is not a fixed point")
		}
		if budget := `"max_recovery_ms": 12.5`; strings.Contains(doc, budget) != bytes.Contains(c1, []byte(budget)) {
			t.Fatalf("canonical form mislaid the recovery budget:\n%s", c1)
		}
	}
}

// TestMalformedScenarios asserts that schema violations fail with
// positional error messages naming the phase/event/assertion at fault.
func TestMalformedScenarios(t *testing.T) {
	mut := func(from, to string) string {
		s := strings.Replace(validScenario(), from, to, 1)
		if s == validScenario() {
			panic("mutation did not apply: " + from)
		}
		return s
	}
	cases := []struct {
		label string
		doc   string
		want  string // substring of the error
	}{
		{
			"unknown top-level field",
			mut(`"seed": 1,`, `"seed": 1, "sed": 2,`),
			`unknown field "sed"`,
		},
		{
			"unknown target kind",
			mut(`"kind": "device"`, `"kind": "mainframe"`),
			`target: unknown kind "mainframe"`,
		},
		{
			"unknown phase type",
			mut(`"shape": "flat"`, `"shape": "sawtooth"`),
			`phase 0 ("a"): arrival: unknown shape "sawtooth"`,
		},
		{
			"negative rate",
			mut(`"start_rate": 100`, `"start_rate": -5`),
			`phase 0 ("a"): arrival: negative rate`,
		},
		{
			"mix does not sum to one",
			mut(`"mix": {"get": 0.5, "put": 0.5}`, `"mix": {"get": 0.5, "put": 0.2}`),
			`phase 0 ("a"): mix: fractions sum to 0.700`,
		},
		{
			"unknown key dist",
			mut(`"dist": "uniform"`, `"dist": "pareto"`),
			`phase 0 ("a"): keys: unknown dist "pareto"`,
		},
		{
			"zipf theta out of range",
			mut(`"dist": "uniform"`, `"dist": "zipf", "theta": 3`),
			`phase 0 ("a"): keys: zipf theta 3.00 out of range`,
		},
		{
			"event outside phase window",
			mut(`"keys": {"dist": "uniform"}
    }`, `"keys": {"dist": "uniform"},
      "events": [{"at_ms": 99, "kind": "client_stall", "duration_ms": 5}]
    }`),
			`phase 0 ("a"): event 0 (client_stall): at_ms 99 outside the phase's [0, 10]ms window`,
		},
		{
			"unknown event kind",
			mut(`"keys": {"dist": "uniform"}
    }`, `"keys": {"dist": "uniform"},
      "events": [{"at_ms": 5, "kind": "asteroid"}]
    }`),
			`phase 0 ("a"): event 0 (asteroid): unknown event kind`,
		},
		{
			"kill_node on device target",
			mut(`"keys": {"dist": "uniform"}
    }`, `"keys": {"dist": "uniform"},
      "events": [{"at_ms": 5, "kind": "kill_node", "node": 0}]
    }`),
			`phase 0 ("a"): event 0 (kill_node): requires the cluster target`,
		},
		{
			"si_txn without txn_keys",
			mut(`"mix": {"get": 0.5, "put": 0.5}`, `"mix": {"get": 0.5, "si_txn": 0.5}`),
			`keyspace: txn_keys required`,
		},
		{
			"assertion names unknown phase",
			mut(`"assertions": {"final": {}}`,
				`"assertions": {"phases": [{"phase": "zz", "min_ops": 1}], "final": {}}`),
			`assertions: phase SLO 0 references unknown phase "zz"`,
		},
		{
			"si_axioms without si traffic",
			mut(`"assertions": {"final": {}}`,
				`"assertions": {"final": {"si_axioms": true}}`),
			`final.si_axioms set but no phase mixes si_txn`,
		},
		{
			"negative recovery budget",
			withPowerCut("-1"),
			`assertions: final.max_recovery_ms -1 is negative`,
		},
		{
			"recovery budget with nothing to recover",
			mut(`"assertions": {"final": {}}`, `"assertions": {"final": {"max_recovery_ms": 10}}`),
			`assertions: final.max_recovery_ms set but nothing is recovered`,
		},
		{
			"recovery budget on the cluster target",
			strings.Replace(withPowerCut("10"), `{"kind": "device"}`, `{"kind": "cluster", "nodes": 2, "shards": 2, "replication": 2}`, 1),
			`assertions: final.max_recovery_ms set but nothing is recovered`,
		},
		{
			"zero duration",
			mut(`"duration_ms": 10`, `"duration_ms": 0`),
			`phase 0 ("a"): duration_ms 0 must be positive`,
		},
		{
			"cluster shape on device target",
			mut(`{"kind": "device"}`, `{"kind": "device", "nodes": 3}`),
			`device target takes no cluster shape`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted malformed scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q\n  missing %q", err, tc.want)
			}
		})
	}
}

// TestOverlappingPhaseWindows exercises the absolute-start overlap check.
func TestOverlappingPhaseWindows(t *testing.T) {
	two := `{
  "name": "t",
  "seed": 1,
  "target": {"kind": "device"},
  "keyspace": {"keys": 64, "value_size": 32, "sample_every": 4},
  "phases": [
    {"name": "a", "duration_ms": 20,
     "arrival": {"shape": "flat", "start_rate": 100},
     "mix": {"get": 1}, "keys": {"dist": "uniform"}},
    {"name": "b", "start_ms": 15, "duration_ms": 10,
     "arrival": {"shape": "flat", "start_rate": 100},
     "mix": {"get": 1}, "keys": {"dist": "uniform"}}
  ],
  "assertions": {"final": {}}
}`
	_, err := Parse([]byte(two))
	if err == nil || !strings.Contains(err.Error(), `phase 1 ("b"): start_ms 15 overlaps previous phase (ends at 20ms)`) {
		t.Fatalf("overlap not rejected with position: %v", err)
	}
	// A gap (start_ms past the previous end) is fine.
	ok := strings.Replace(two, `"start_ms": 15`, `"start_ms": 30`, 1)
	sc, err := Parse([]byte(ok))
	if err != nil {
		t.Fatalf("gap rejected: %v", err)
	}
	starts, end := sc.phaseStarts()
	if starts[1] != 30*time.Millisecond || end != 40*time.Millisecond {
		t.Fatalf("phase starts %v end %v", starts, end)
	}
}

func TestArrivalShapes(t *testing.T) {
	ramp := Arrival{Shape: ShapeRamp, StartRate: 100, EndRate: 300}
	if got := ramp.rateAt(0.5); got != 200 {
		t.Fatalf("ramp midpoint %v", got)
	}
	spike := Arrival{Shape: ShapeSpike, StartRate: 100, EndRate: 500}
	if got := spike.rateAt(0.5); got != 500 {
		t.Fatalf("spike peak %v", got)
	}
	if got := spike.rateAt(0); got != 100 {
		t.Fatalf("spike start %v", got)
	}
	diurnal := Arrival{Shape: ShapeDiurnal, StartRate: 100, EndRate: 500}
	if got := diurnal.rateAt(0.5); got < 499 || got > 501 {
		t.Fatalf("diurnal peak %v", got)
	}
	if got := diurnal.rateAt(0); got < 99 || got > 101 {
		t.Fatalf("diurnal trough %v", got)
	}
}

// The report's quantiles are nearest-rank: of 1070 samples the p99 is the
// 1060th smallest (ceil(0.99·1070)), not the 1059th that rounding the rank
// gives.
func TestSummarizeLatenciesNearestRank(t *testing.T) {
	us := make([]int64, 1070)
	for i := range us {
		us[i] = int64(len(us) - i) // 1070 down to 1: the input order must not matter
	}
	want := Latency{P50: 535, P90: 963, P95: 1017, P99: 1060, Max: 1070}
	if got := summarizeLatencies(us); got != want {
		t.Fatalf("summarizeLatencies(1..1070) = %+v, want %+v", got, want)
	}
}
