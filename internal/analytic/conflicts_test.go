package analytic

import (
	"math"
	"math/rand"
	"testing"
)

func TestClosedFormMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ n, k, l int }{
		{8, 1024, 1},
		{8, 1024, 16},
		{32, 1024, 16},
		{64, 256, 8},
		{100, 100, 10},
	}
	for _, c := range cases {
		want := ExpectedConflictsUniform(c.n, c.k, c.l)
		got := SimulateConflictsUniform(c.n, c.k, c.l, 4000, rng)
		if math.Abs(want-got) > 0.15*math.Max(want, 1) {
			t.Errorf("N=%d K=%d l=%d: closed=%.3f sim=%.3f", c.n, c.k, c.l, want, got)
		}
	}
}

func TestConflictsGrowWithGranularity(t *testing.T) {
	// The paper's conclusion: as l increases, conflicts increase.
	prev := -1.0
	for _, l := range []int{1, 2, 4, 8, 16, 64} {
		e := ExpectedConflictsUniform(16, 4096, l)
		if e < prev {
			t.Fatalf("conflicts decreased at l=%d: %f < %f", l, e, prev)
		}
		prev = e
	}
}

func TestEdgeCases(t *testing.T) {
	if ExpectedConflictsUniform(0, 100, 1) != 0 {
		t.Fatal("zero requests")
	}
	if e := ExpectedConflictsUniform(1, 100, 1); e > 1e-9 {
		t.Fatalf("single request conflicts: %f", e)
	}
	// One giant lock: all but the first request conflict.
	if e := ExpectedConflictsUniform(10, 100, 100); math.Abs(e-9) > 1e-9 {
		t.Fatalf("single lock: %f want 9", e)
	}
}
