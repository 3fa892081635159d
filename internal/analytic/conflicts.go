// Package analytic implements the paper's §V-D.2 locking-granularity
// analysis: with K keys partitioned into lock units of l keys each, and N
// simultaneous updates choosing key i with probability p_i, the expected
// number of conflicting requests follows the classic balls-into-bins bound:
//
//	E[conflicts] = N - K/l + sum_{j=1}^{K/l} (1 - q_j)^N
//
// where q_j is the probability a request lands in lock unit j. For the
// uniform case (p_i = 1/K) this reduces to the paper's closed form:
//
//	E[conflicts] = N - (K/l) * (1 - (1 - l/K)^N)
package analytic

import (
	"math"
	"math/rand"
)

// ExpectedConflictsUniform evaluates the paper's closed form for uniform
// key choice: N requests over K keys grouped l keys per lock.
func ExpectedConflictsUniform(n, k, l int) float64 {
	if n <= 0 || k <= 0 || l <= 0 {
		return 0
	}
	bins := float64(k) / float64(l)
	pBin := float64(l) / float64(k)
	if pBin > 1 {
		pBin = 1
		bins = 1
	}
	return float64(n) - bins*(1-math.Pow(1-pBin, float64(n)))
}

// SimulateConflictsUniform estimates the same quantity by Monte Carlo:
// draw N keys uniformly, count requests beyond the first in each lock
// unit, averaged over trials.
func SimulateConflictsUniform(n, k, l, trials int, rng *rand.Rand) float64 {
	if trials < 1 {
		trials = 1
	}
	total := 0
	seen := make(map[int]bool, n)
	for t := 0; t < trials; t++ {
		for i := range seen {
			delete(seen, i)
		}
		for i := 0; i < n; i++ {
			unit := rng.Intn(k) / l
			if seen[unit] {
				total++ // contends with an earlier request for the unit
			} else {
				seen[unit] = true
			}
		}
	}
	return float64(total) / float64(trials)
}
