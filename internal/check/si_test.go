package check

import (
	"strings"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
)

// Hand-built SI histories exercise each axiom in isolation: the explorer
// proves end-to-end coverage, these prove the classifier itself.

// siHist builds an event list from a compact script. Each entry is one
// event of a transaction: {txn, op, key, tag}. Reads complete with tag as
// the observed value (0 = not-found); writes stage tag; commits ignore
// key/tag. Times are the entry index (so commit order equals script order).
type siStep struct {
	txn uint64
	op  kaml.Op
	key uint64
	tag uint64
}

func siHist(steps []siStep) []Event {
	evs := make([]Event, 0, len(steps))
	for i, s := range steps {
		ev := Event{
			ID: uint64(i + 1), Op: s.op, Txn: s.txn,
			Start: time.Duration(i * 2), End: time.Duration(i*2 + 1),
		}
		switch s.op {
		case kaml.OpTxnRead:
			ev.Recs = []Rec{{NS: 1, Key: s.key}}
			if s.tag == 0 {
				ev.Err = ErrNotFound
			} else {
				ev.RetTag, ev.Tagged = s.tag, true
			}
		case kaml.OpTxnUpdate:
			ev.Recs = []Rec{{NS: 1, Key: s.key, Tag: s.tag, VLen: tagHdr}}
		}
		evs = append(evs, ev)
	}
	return evs
}

func violKinds(vs []Violation) string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Kind)
	}
	return strings.Join(out, ",")
}

func TestSICheckerAxioms(t *testing.T) {
	r, w, c := kaml.OpTxnRead, kaml.OpTxnUpdate, kaml.OpTxnCommit
	cases := []struct {
		name  string
		steps []siStep
		want  string // exact violation-kind list, "" = clean
	}{
		{
			name: "clean-rmw-chain",
			steps: []siStep{
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, r, 5, 101}, {2, w, 5, 201}, {2, c, 0, 0},
				{3, r, 5, 201}, {3, w, 5, 301}, {3, c, 0, 0},
			},
		},
		{
			name: "lost-update",
			steps: []siStep{
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, r, 5, 101}, {3, r, 5, 101},
				{2, w, 5, 201}, {2, c, 0, 0},
				{3, w, 5, 301}, {3, c, 0, 0},
			},
			want: "si-lost-update",
		},
		{
			name: "lost-update-on-absent-key",
			steps: []siStep{
				{1, r, 5, 0}, {2, r, 5, 0},
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, w, 5, 201}, {2, c, 0, 0},
			},
			want: "si-lost-update",
		},
		{
			name: "write-skew-is-legal",
			steps: []siStep{
				{1, w, 5, 101}, {1, w, 6, 102}, {1, c, 0, 0},
				// Txns 2 and 3 read each other's keys, write disjoint keys.
				{2, r, 5, 101}, {2, r, 6, 102},
				{3, r, 5, 101}, {3, r, 6, 102},
				{2, w, 5, 201}, {2, c, 0, 0},
				{3, w, 6, 301}, {3, c, 0, 0},
			},
		},
		{
			name: "dirty-read-of-aborted-txn",
			steps: []siStep{
				{1, w, 5, 101}, {1, kaml.OpTxnAbort, 0, 0},
				{2, r, 5, 101}, {2, c, 0, 0},
			},
			want: "si-dirty-read",
		},
		{
			name: "unrepeatable-read",
			steps: []siStep{
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, r, 5, 101},
				{3, w, 5, 301}, {3, c, 0, 0},
				{2, r, 5, 301}, {2, c, 0, 0},
			},
			want: "si-unrepeatable-read",
		},
		{
			name: "fractured-read",
			steps: []siStep{
				{1, w, 5, 101}, {1, w, 6, 102}, {1, c, 0, 0},
				{2, w, 5, 201}, {2, w, 6, 202}, {2, c, 0, 0},
				// Txn 3 sees txn 2 on key 5 but pre-2 (txn 1) on key 6.
				{3, r, 5, 201}, {3, r, 6, 102}, {3, c, 0, 0},
			},
			want: "si-fractured-read",
		},
		{
			name: "fractured-read-absent-half",
			steps: []siStep{
				{1, w, 5, 101}, {1, w, 6, 102}, {1, c, 0, 0},
				{2, r, 5, 101}, {2, r, 6, 0}, {2, c, 0, 0},
			},
			want: "si-fractured-read",
		},
		{
			name: "own-write-visible",
			steps: []siStep{
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, w, 5, 201}, {2, r, 5, 201}, {2, c, 0, 0},
			},
		},
		{
			name: "own-write-not-returned",
			steps: []siStep{
				{1, w, 5, 101}, {1, c, 0, 0},
				{2, w, 5, 201}, {2, r, 5, 101}, {2, c, 0, 0},
			},
			want: "si-own-write",
		},
		{
			name: "phantom-value",
			steps: []siStep{
				{1, r, 5, 999}, {1, c, 0, 0},
			},
			want: "si-phantom-read",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := violKinds(CheckHistorySI(siHist(tc.steps)))
			if got != tc.want {
				t.Fatalf("violations = [%s], want [%s]\n%s",
					got, tc.want, FormatViolations(CheckHistorySI(siHist(tc.steps))))
			}
		})
	}
}

// Clean SI seeds: the real engine's snapshot-isolation transactions satisfy
// every SI axiom across a sweep of seeded hot-key RMW schedules, with
// snapshot reads served both from the record cache and from the device.
func TestSIExplorerCleanSeeds(t *testing.T) {
	var hits, misses int64
	fail := ExploreSI(0, 25, 400, false, func(_ *Scenario, res *RunResult) {
		hits += res.CacheHits
		misses += res.CacheMisses
	})
	if fail != nil {
		t.Fatalf("seed %d violates SI:\n%s\nscenario:\n%s",
			fail.Scenario.Seed, FormatViolations(fail.Result.Violations), fail.Scenario)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("SI reads served by the cache %d, by the device %d: want both paths explored", hits, misses)
	}
}

// SI runs are as deterministic as the base explorer: same seed, same
// history bytes.
func TestSIRepeatRunDeterminism(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		a := Run(GenSIScenario(seed, 300, false))
		b := Run(GenSIScenario(seed, 300, false))
		if string(a.History) != string(b.History) {
			t.Fatalf("seed %d: histories differ between identical runs", seed)
		}
	}
}

// The SI self-test: with first-committer-wins validation disabled, some
// seed in a modest budget must produce a lost update — and the checker
// must catch it and shrink the scenario without losing the failure.
func TestSILostUpdateCaughtAndShrunk(t *testing.T) {
	var fail *Failure
	for seed := int64(0); seed < 40 && fail == nil; seed++ {
		sc := GenSIScenario(seed, 400, true)
		if res := Run(sc); res.Failed() {
			fail = &Failure{Scenario: sc, Result: res}
		}
	}
	if fail == nil {
		t.Fatal("validation-off defect not caught in 40 seeds; SI checker or workload bias is broken")
	}
	found := false
	for _, v := range fail.Result.Violations {
		if v.Kind == "si-lost-update" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an si-lost-update violation, got:\n%s", FormatViolations(fail.Result.Violations))
	}

	small, sres := Shrink(fail.Scenario, nil)
	if !sres.Failed() {
		t.Fatal("shrink lost the failure")
	}
	if small.opCount() > fail.Scenario.opCount() {
		t.Fatalf("shrink grew the scenario: %d -> %d ops", fail.Scenario.opCount(), small.opCount())
	}
}
