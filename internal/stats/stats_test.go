package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestQuantilesOnKnownData(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Microsecond},
		{0.5, 50 * time.Microsecond},
		{0.99, 99 * time.Microsecond},
		{1, 100 * time.Microsecond},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q=%.2f got %v want %v", c.q, got, c.want)
		}
	}
	if h.Mean() != 50*time.Microsecond+500*time.Nanosecond {
		t.Errorf("mean=%v", h.Mean())
	}
	if h.Max() != 100*time.Microsecond {
		t.Errorf("max=%v", h.Max())
	}
}

// TestNearestRank pins the rank rule and its clamps at both ends.
func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{
		{0.5, 1, 0}, {1, 1, 0},
		{-1, 10, 0}, {0, 10, 0}, {0.1, 10, 0}, {0.11, 10, 1},
		{0.5, 10, 4}, {0.9, 10, 8}, {0.99, 10, 9}, {1, 10, 9}, {2, 10, 9},
		{0.99, 1070, 1059},
	} {
		if got := NearestRank(c.q, c.n); got != c.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestAddAfterQuantileResorts(t *testing.T) {
	var h Histogram
	h.Add(10 * time.Microsecond)
	_ = h.Quantile(0.5)
	h.Add(1 * time.Microsecond)
	if h.Quantile(0) != time.Microsecond {
		t.Fatal("sort not refreshed after Add")
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Add(time.Duration(rand.Intn(100)) * time.Microsecond)
		b.Add(time.Duration(rand.Intn(100)) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 100 {
		t.Fatalf("count=%d", a.Count())
	}
}

func TestSummaryFormat(t *testing.T) {
	var h Histogram
	h.Add(100 * time.Microsecond)
	s := h.Summary()
	if len(s) == 0 || s[:5] != "mean=" {
		t.Fatalf("summary %q", s)
	}
}
